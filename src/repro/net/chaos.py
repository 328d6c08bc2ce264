"""The ``gateway_kill`` chaos scenario: SIGKILL the serving process.

The in-process soak (:mod:`repro.serve.chaos`) kills a *modelled*
process inside one interpreter; this one kills the real thing.  A
gateway subprocess (``python -m repro.net`` on a durable directory)
serves the same deterministic job mix
(:func:`repro.serve.chaos.build_workload`); once part of it is DONE,
the process is SIGKILLed mid-run — no drain, no atexit, exactly the
crash the write-ahead journal exists for.  A second incarnation is
launched on the same directory and the whole workload is resubmitted
verbatim.

Within the first incarnation, a duplicate POST must answer with the
original job id (``duplicate: true``).  After recovery, the soak's one
check (:func:`repro.serve.chaos._check_recovery`) runs on what the
HTTP surface shows: every unique fingerprint DONE; every job DONE
before the kill counted ``from_store`` by the healthz recovery counters
and never ``executed_in_process`` again; and with ``--verify`` every
unique result (npz route) bit-identical to an uninterrupted serial
:meth:`repro.api.Session.simulate`.

Usage::

    python -m repro.net chaos --jobs 8 --workers 2 --verify \\
        --json chaos-gateway.json
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from ..serve.chaos import _check_recovery, build_workload
from .client import GatewayClient

__all__ = ["run_gateway_chaos"]


def _repro_env() -> dict:
    """A subprocess environment that can ``import repro``."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def launch_gateway(durable_dir: str, *, workers: int = 2,
                   checkpoint_every: int = 3, max_queue: int = 64,
                   extra_args=(), timeout: float = 90.0):
    """Start ``python -m repro.net`` as a subprocess; wait until ready.

    Returns ``(process, base_url)``.  The ready file is how the child
    reports its ephemeral port.
    """
    ready = os.path.join(durable_dir, f"ready-{os.getpid()}-"
                         f"{time.monotonic_ns()}.json")
    cmd = [sys.executable, "-m", "repro.net", "serve",
           "--port", "0", "--workers", str(workers),
           "--durable-dir", durable_dir,
           "--checkpoint-every", str(checkpoint_every),
           "--max-queue", str(max_queue),
           "--ready-file", ready, *extra_args]
    proc = subprocess.Popen(cmd, env=_repro_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            err = proc.stderr.read().decode("utf-8", "replace")
            raise RuntimeError(
                f"gateway exited {proc.returncode} before ready:\n{err}")
        if os.path.exists(ready):
            try:
                with open(ready, encoding="utf-8") as f:
                    info = json.load(f)
                os.remove(ready)
                return proc, info["url"]
            except (ValueError, KeyError):
                pass                       # torn write; poll again
        time.sleep(0.05)
    proc.kill()
    raise TimeoutError(f"gateway not ready within {timeout}s")


def _fetch_results(client: GatewayClient, job_of: dict) -> dict:
    """Each fingerprint's ``(field, receivers)`` over the bit-faithful
    npz route; ``job_of`` maps fingerprint -> job id."""
    results = {}
    for fp, job_id in job_of.items():
        arrays = client.result_arrays(job_id)
        field = arrays.pop("field")          # the rest are "recv:<name>"
        results[fp] = (field, {k[len("recv:"):]: v
                               for k, v in arrays.items()})
    return results


def run_gateway_chaos(*, jobs: int = 8, workers: int = 2, steps: int = 12,
                      checkpoint_every: int = 3, durable_dir=None,
                      verify: bool = False, api_key: str = "key-alpha",
                      kill_after_done: int | None = None) -> dict:
    """Kill a real gateway mid-run; recover; assert zero re-execution.

    Returns a report dict whose ``errors`` list is empty iff every
    assertion held.
    """
    if durable_dir is None:
        durable_dir = tempfile.mkdtemp(prefix="repro-gw-chaos-")
    workload = build_workload(jobs, steps)
    want_done = (kill_after_done if kill_after_done is not None
                 else max(1, jobs // 3))
    errors: list[str] = []
    report: dict = {"scenario": "gateway_kill", "jobs": jobs,
                    "workers": workers, "steps": steps,
                    "durable_dir": durable_dir, "errors": errors}

    # -- incarnation 1: serve until part of the workload is DONE, then die
    proc, url = launch_gateway(durable_dir, workers=workers,
                               checkpoint_every=checkpoint_every)
    client = GatewayClient(url, api_key=api_key)
    submitted = [client.submit_ok(req) for req in workload]
    job_of = {s["fingerprint"]: s["job_id"] for s in submitted}

    # in-incarnation idempotency: a duplicate POST answers with the
    # original job id and never enqueues a second job
    dup_status, dup = client.submit(workload[0])
    fp0 = workload[0].fingerprint()
    if not (dup_status == 200 and dup.get("duplicate")
            and dup["job_id"] == job_of[fp0]):
        errors.append(
            f"duplicate POST broke idempotency: {dup_status} {dup}")

    done_before: set[str] = set()
    deadline = time.monotonic() + 120.0
    while len(done_before) < want_done and time.monotonic() < deadline:
        for fp, jid in job_of.items():
            if fp in done_before:
                continue
            if client.status(jid)["state"] == "DONE":
                done_before.add(fp)
        time.sleep(0.02)
    report["done_before_kill"] = len(done_before)
    if not done_before:
        errors.append("nothing finished before the kill window")
    os.kill(proc.pid, signal.SIGKILL)     # the chaos: no drain, no flush
    proc.wait(timeout=30)
    report["killed_pid"] = proc.pid

    # -- incarnation 2: same directory, resubmit everything
    proc2, url2 = launch_gateway(durable_dir, workers=workers,
                                 checkpoint_every=checkpoint_every)
    try:
        client2 = GatewayClient(url2, api_key=api_key)
        report["recovered"] = client2.healthz()["recovered"]
        job_of2 = {s["fingerprint"]: s["job_id"]
                   for s in map(client2.submit_ok, workload)}
        finals = {fp: client2.wait(jid, timeout=180.0)
                  for fp, jid in job_of2.items()}
        done = {fp: job_of2[fp] for fp, st in finals.items()
                if st["state"] == "DONE"}
        results = (_fetch_results(client2, done) if verify
                   else dict.fromkeys(done))
        report["verified"] = _check_recovery(
            errors, workload, results, stored=done_before,
            recovered=report["recovered"]["from_store"],
            executed={fp for fp, st in finals.items()
                      if st["executed_in_process"]},
            verify=verify)
        report["executions_after_recovery"] = client2.healthz()["executions"]
        report["final_states"] = sorted(
            (fp[:12], st["state"]) for fp, st in finals.items())
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=10)
    report["ok"] = not errors
    return report
