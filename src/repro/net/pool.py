"""The gateway's worker-process pool.

Workers are real OS processes (``multiprocessing`` with the ``spawn``
start method — the gateway runs threads, so forking is off the table)
pulling task dicts from a queue and posting message tuples back.  Each
worker decodes the journalled request and hands it to
:func:`repro.serve.job.run_job`, the same function the in-process
scheduler calls, so a job computes the same bits (and the same
``policy_log``) no matter which side of the process boundary runs it.
Wallclock throughput scales with cores because each worker owns a full
interpreter (no GIL sharing) and its own per-process ``CompileCache``;
the on-disk loops artifact cache (set ``loops_cache_dir``) keeps
cc/numba compilations shared *across* processes.

Workers are daemonic, and a daemonic process may not spawn children, so
a ``shards>1`` job's ``MultiGPU(..., parallel=True)`` pool refuses the
multi-process overlap executor here (``_parallel_eligible``) and steps
in-process, one ``execute`` per step.

Transport protocol (all values picklable):

* gateway → worker: a task dict with ``fingerprint``, ``request`` (the
  :func:`~repro.serve.journal.encode_request` form), ``job_id``,
  ``resume_path`` (optional checkpoint to restore), ``checkpoint_path``
  (where to persist periodic checkpoints, optional) and
  ``checkpoint_every``; ``None`` is the shutdown sentinel.
* worker → gateway: ``("started", fp, worker_id)``,
  ``("progress", fp, time_step, total_steps, worker_id)``,
  ``("done", fp, job_result, worker_id)`` — the
  :class:`~repro.serve.job.JobResult` from ``run_job`` with its clock
  stamps left for the gateway to set — or
  ``("failed", fp, error_str, worker_id)``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod

__all__ = ["WorkerPool"]


def _worker_main(worker_id: int, cfg: dict, task_q, result_q) -> None:
    """Worker process entrypoint (module-level for ``spawn`` pickling)."""
    if cfg.get("loops_cache_dir"):
        os.environ.setdefault("REPRO_LOOPS_CACHE_DIR",
                              cfg["loops_cache_dir"])
    # imports happen inside the child: spawn re-imports repro fresh
    from ..acoustics.sim import Checkpoint
    from ..gpu.device import resolve_device
    from ..serve.cache import CompileCache
    from ..serve.job import run_job
    from ..serve.journal import decode_request

    devices = resolve_device(cfg.get("devices"))
    compile_cache = CompileCache()

    while True:
        task = task_q.get()
        if task is None:
            break
        fp = task["fingerprint"]
        try:
            req = decode_request(task["request"])
            result_q.put(("started", fp, worker_id))
            lease = devices[:min(req.shards, len(devices))]
            program = None
            if req.backend == "virtual_gpu":
                program = compile_cache.program_for(req, lease[0])
            resume = None
            if task.get("resume_path") and os.path.exists(
                    task["resume_path"]):
                try:
                    resume = Checkpoint.load(task["resume_path"])
                except Exception:
                    resume = None          # unreadable snapshot: run fresh
            cp_path = task.get("checkpoint_path")

            def hook(cp):
                if cp_path:
                    cp.save(cp_path)       # atomic (tmp + rename)
                result_q.put(("progress", fp, cp.time_step, req.steps,
                              worker_id))

            result, error = run_job(
                req, lease, program=program,
                resilient=bool(cfg.get("resilient", False)),
                attempts=int(cfg.get("job_attempts", 2)),
                checkpoint_every=int(task.get("checkpoint_every", 0)),
                on_checkpoint=hook, resume=resume,
                job_id=task.get("job_id"))
            if result is not None:
                result_q.put(("done", fp, result, worker_id))
            else:
                result_q.put(("failed", fp, error, worker_id))
        except Exception as exc:           # noqa: BLE001 - worker firewall
            result_q.put(("failed", fp,
                          f"{type(exc).__name__}: {exc}", worker_id))


class WorkerPool:
    """N spawn-context worker processes behind a task/result queue pair."""

    def __init__(self, workers: int = 2, *, devices=None,
                 resilient: bool = False, job_attempts: int = 2,
                 loops_cache_dir: str | None = None,
                 start_method: str = "spawn") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._ctx = mp.get_context(start_method)
        self.task_queue = self._ctx.Queue()
        self.result_queue = self._ctx.Queue()
        self._cfg = {
            "devices": devices,
            "resilient": resilient,
            "job_attempts": job_attempts,
            "loops_cache_dir": loops_cache_dir,
        }
        self.size = workers
        self._procs: list = []
        self.respawns = 0

    def start(self) -> None:
        for i in range(self.size):
            self._procs.append(self._spawn(i))

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._cfg, self.task_queue, self.result_queue),
            daemon=True, name=f"repro-net-worker-{worker_id}")
        proc.start()
        return proc

    def dispatch(self, task: dict) -> None:
        self.task_queue.put(task)

    def poll_message(self, timeout: float = 0.2):
        """Next worker message, or ``None`` after ``timeout`` seconds."""
        try:
            return self.result_queue.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    @property
    def alive(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def reap(self) -> list[int]:
        """Respawn dead workers; returns the ids that were replaced."""
        dead = []
        for i, p in enumerate(self._procs):
            if not p.is_alive():
                dead.append(i)
                self._procs[i] = self._spawn(i)
                self.respawns += 1
        return dead

    def stop(self, timeout: float = 10.0) -> None:
        for _ in self._procs:
            try:
                self.task_queue.put(None)
            except (ValueError, OSError):
                break
        for p in self._procs:
            p.join(timeout=timeout)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        # unblock the feeder threads so interpreter shutdown is clean
        self.task_queue.cancel_join_thread()
        self.result_queue.cancel_join_thread()
