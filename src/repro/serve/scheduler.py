"""The simulation service: device-pool placement, batching, execution.

:class:`SimulationService` is the serving loop over the repo's existing
substrate — jobs are admitted into a
:class:`~repro.serve.queue.BoundedPriorityQueue`, placed onto a
:class:`DevicePool` of virtual devices, executed through
:func:`~repro.serve.job.run_job` (the same path the gateway's pool
workers take, reusing the fault and resilience layers per job), and
answered through
:class:`~repro.serve.job.JobHandle` futures.

Time is **modelled**, like everywhere else in this reproduction: each
pool slot carries a ``busy_until_ms`` horizon, a job's start is the
later of its submission and its lease's availability, and its duration
is the simulation's modelled kernel + halo time.  The arithmetic lives
in the service itself (not in the tracer clock), so throughput and
latency percentiles from :meth:`SimulationService.stats` are
bit-reproducible whether observability is on or off.

Scheduling policy, in order:

1. **Priority** — the queue yields the highest-priority job (ties by
   submission order).
2. **Batching** — up to ``max_batch`` further queued jobs with the same
   compile key (same program) and the same shard count join the leader's
   lease and run back-to-back on it, amortising compile and autotune.
3. **Deadline admission** — a job whose modelled start would exceed
   ``submit + deadline_ms`` is EVICTED instead of run.
4. **Caching** — the result cache is consulted at submission and again
   at placement (a duplicate submitted while its twin was queued hits
   the second check); hits consume no device time.
5. **Retry escalation** — a failed attempt (typed OpenCL error or
   numerical divergence) is retried up to ``job_attempts`` times; from
   the second attempt the job is forced onto the resilient executor
   (:class:`repro.gpu.resilient.ResilientGPU`), escalating into the
   fault layer's retry/degrade/fallback ladder.
6. **Durability** (opt-in via ``durable_dir``) — every lifecycle
   transition is write-ahead journalled (:mod:`.journal`), finished
   results are persisted to a content-addressed on-disk store
   (:mod:`.store`) consulted as a second cache tier, and mid-job
   checkpoints are written every ``checkpoint_every`` steps through the
   PR-1 checkpoint machinery.  :meth:`SimulationService.recover`
   rebuilds a crashed service from the directory: completed jobs are
   served from the store without re-execution, in-flight jobs are
   re-enqueued (resuming from their last durable checkpoint), and a
   torn journal tail is truncated with a warning.  See
   ``docs/durability.md``.
7. **Observability** — every job carries a trace id derived from its
   fingerprint (:func:`~repro.serve.job.derive_trace_id`) that flows
   submit → lease → execution spans → journal → completion; with
   ``observability=True`` the service additionally samples sliding-
   window time series (:mod:`repro.obs.timeseries`) and evaluates
   burn-rate SLOs (:mod:`repro.obs.slo`) at event boundaries.  A
   bounded flight recorder (:mod:`repro.obs.flight`) is **always on**
   and dumped to ``flight-recorder.json`` on divergence or crash.
   None of it perturbs the modelled numbers: :meth:`stats` is
   byte-identical with observability on or off.  See
   ``docs/observability.md``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

from .. import obs as _obs
from ..obs import window_percentile
from ..acoustics.sim import Checkpoint, SimulationDiverged
from ..gpu.device import DeviceSpec, resolve_device
from .cache import CompileCache, ResultCache
from .job import JOB_STATES, JobHandle, JobResult, SubmitRequest, run_job
from .journal import (Journal, WorkerCrash, decode_request, encode_request)
from .queue import BoundedPriorityQueue, InvalidRequest, QueueFull
from .store import ResultStore

__all__ = ["DevicePool", "DeviceSlot", "SimulationService"]


class DeviceSlot:
    """One device of the pool and the modelled time it frees up."""

    __slots__ = ("spec", "busy_until_ms")

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.busy_until_ms = 0.0

    def __repr__(self) -> str:
        return f"DeviceSlot({self.spec.name}, free@{self.busy_until_ms:.3f}ms)"


class DevicePool:
    """Earliest-availability leasing over a resolved device tuple."""

    def __init__(self, devices=None):
        self.slots = tuple(DeviceSlot(d) for d in resolve_device(devices))

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def devices(self) -> tuple[DeviceSpec, ...]:
        return tuple(s.spec for s in self.slots)

    def lease(self, shards: int,
              not_before: float) -> tuple[list[DeviceSlot], float]:
        """The ``shards`` earliest-free slots and the lease's start time
        (when all of them are free and the job is allowed to begin).
        Ties break on pool order, so placement is deterministic."""
        if shards > len(self.slots):
            raise InvalidRequest(
                f"job wants {shards} shard(s) but the pool has "
                f"{len(self.slots)} device(s)")
        ranked = sorted(range(len(self.slots)),
                        key=lambda i: (self.slots[i].busy_until_ms, i))
        chosen = [self.slots[i] for i in ranked[:shards]]
        start = max([not_before] + [s.busy_until_ms for s in chosen])
        return chosen, start


class SimulationService:
    """An async simulation service over a virtual device pool.

    Construction mirrors :class:`repro.api.Session` (``devices`` /
    ``resilient`` / ``faults`` / ``retry`` / ``observability``) plus the
    serving knobs: ``max_queue`` (admission bound — :class:`QueueFull`
    beyond it), ``max_batch`` (jobs per lease), ``job_attempts`` (retry
    budget per job) and ``result_cache_entries`` (LRU bound; 0 disables
    the result tier).  ``durable_dir`` turns on the durability layer
    (write-ahead journal + on-disk result store + mid-job checkpoints
    every ``checkpoint_every`` steps, ``store_max_bytes`` LRU budget);
    :meth:`recover` rebuilds a crashed durable service from that
    directory.

    The service is cooperative: :meth:`submit` only enqueues;
    :meth:`drain` (or any handle's ``result()``) runs the scheduling
    loop to completion on the caller's thread.
    """

    def __init__(self, *, devices=None, resilient: bool = False,
                 faults=None, retry=None,
                 observability: "bool | _obs.Observability" = False,
                 max_queue: int = 64, max_batch: int = 4,
                 job_attempts: int = 2, result_cache_entries: int = 128,
                 durable_dir=None, checkpoint_every: int = 0,
                 store_max_bytes: int | None = None,
                 window_ms: float = 1000.0, slos=None,
                 flight_capacity: int = 512):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if job_attempts < 1:
            raise ValueError(f"job_attempts must be >= 1, got {job_attempts}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.pool = DevicePool(devices)
        self.resilient = resilient
        self.faults = faults
        self.retry = retry
        self.max_batch = max_batch
        self.job_attempts = job_attempts
        self.queue = BoundedPriorityQueue(max_queue)
        self.compile_cache = CompileCache()
        self.result_cache = ResultCache(result_cache_entries)
        if observability is True:
            self.obs: _obs.Observability | None = _obs.Observability()
        elif observability is False:
            self.obs = None
        else:
            self.obs = observability
        # the flight recorder is the one *always-on* instrument: a crash
        # report needs the ring to have been recording before the crash
        self.flight = _obs.FlightRecorder(flight_capacity)
        if self.obs is not None:
            self.timeseries: _obs.TimeSeriesStore | None = \
                _obs.TimeSeriesStore(width_ms=window_ms)
            self.slo: _obs.SLOTracker | None = _obs.SLOTracker(
                slos if slos is not None else _obs.default_slos(),
                self.timeseries)
        else:                             # obs off: no sampling, no SLOs
            self.timeseries = None
            self.slo = None
        #: accumulated modelled busy time per pool slot (always tracked —
        #: it is plain lease arithmetic, and the dashboard's utilisation
        #: panel must not depend on observability being on)
        self.slot_busy_ms = [0.0] * len(self.pool)
        self.now_ms = 0.0
        self.batches = 0
        self._next_id = 1
        self._handles: list[JobHandle] = []
        # incremental per-state counts + a lock make stats()/health()
        # O(1) in the job count and safe to poll from another thread
        # (the gateway's health endpoint) while the service mutates
        self._lock = threading.RLock()
        self._state_counts = {s: 0 for s in JOB_STATES}
        self._waits: list[float] = []
        self._latencies: list[float] = []
        # -- durability (opt-in) --
        self.checkpoint_every = checkpoint_every
        self.durable_dir = None
        self.journal: Journal | None = None
        self.store: ResultStore | None = None
        self.executions = 0
        self.executed_fingerprints: list[str] = []
        self.recovery: dict[str, list[str] | int] = {
            "from_store": [], "requeued": [], "resumed": [],
            "terminal": [], "deduped": 0}
        self._journal_records = []
        self._resume: dict[str, Checkpoint] = {}
        self._replaying = False
        if durable_dir is not None:
            self.durable_dir = os.fspath(durable_dir)
            os.makedirs(os.path.join(self.durable_dir, "checkpoints"),
                        exist_ok=True)
            self.journal = Journal(
                os.path.join(self.durable_dir, "journal.wal"),
                faults=self.faults, obs=self.obs)
            self._journal_records = self.journal.open()
            self.store = ResultStore(
                os.path.join(self.durable_dir, "store"),
                max_bytes=store_max_bytes, faults=self.faults, obs=self.obs)

    # -- client surface ----------------------------------------------------------
    def submit(self, request: SubmitRequest) -> JobHandle:
        """Admit one job; returns its :class:`JobHandle` future.

        Raises :class:`InvalidRequest` on a malformed request and
        :class:`QueueFull` when the bounded queue is at capacity
        (backpressure — nothing was enqueued).
        """
        try:
            request.validate()
        except ValueError as bad:
            raise InvalidRequest(str(bad)) from bad
        if request.shards > len(self.pool):
            raise InvalidRequest(
                f"job wants {request.shards} shard(s) but the pool has "
                f"{len(self.pool)} device(s)")
        encoded = None
        if self.journal is not None:
            try:
                encoded = encode_request(request)
            except ValueError as bad:
                raise InvalidRequest(
                    f"durable service cannot journal this request: "
                    f"{bad}") from bad
        fp = request.fingerprint()
        handle = JobHandle(self._next_id, request, self.now_ms, self)
        self._next_id += 1
        cached = self._stored_result(fp)
        if cached is not None:
            self._journal("submit", handle, fp, request=encoded)
            self.flight.record("submit", self.now_ms, job=handle.job_id,
                               trace=handle.trace_id, scheme=request.scheme,
                               priority=request.priority)
            self._ts("submitted")
            self._register(handle)
            self._complete(handle, ResultCache.rebase(
                cached, submit_ms=handle.submit_ms, now_ms=self.now_ms))
            return handle
        if len(self.queue) >= self.queue.capacity:
            # backpressure *before* the journal write: a refused job
            # must leave no durable trace to be replayed
            raise QueueFull(self.queue.capacity)
        self._journal("submit", handle, fp, request=encoded)
        self.flight.record("submit", self.now_ms, job=handle.job_id,
                           trace=handle.trace_id, scheme=request.scheme,
                           priority=request.priority)
        self.queue.push(handle)           # may raise QueueFull (nothing kept)
        self._register(handle)
        self._ts("submitted")
        self._ts("queue_depth", len(self.queue))
        self._gauge_depth()
        return handle

    def drain(self, until: JobHandle | None = None) -> None:
        """Run the scheduling loop until the queue is empty (or ``until``
        reaches a terminal state)."""
        while True:
            if until is not None and until.done:
                return
            lead = self.queue.pop()
            if lead is None:
                self._gauge_depth()
                return
            self._place_batch(lead)
            self._gauge_depth()

    def stats(self) -> dict:
        """Deterministic service-level statistics (modelled clock)."""
        with self._lock:
            states = dict(self._state_counts)
        makespan_ms = self.now_ms
        done = states["DONE"]
        durability = None
        if self.durable_dir is not None:
            durability = {
                "dir": self.durable_dir,
                "journal_bytes": self.journal.bytes_appended,
                "journal_torn_truncated": self.journal.torn_truncated,
                "store": self.store.stats(),
                "executions": self.executions,
                "recovered": {k: (v if isinstance(v, int) else len(v))
                              for k, v in self.recovery.items()},
            }
        return {
            "pool": [d.name for d in self.pool.devices],
            "submitted": len(self._handles),
            "states": states,
            "makespan_ms": makespan_ms,
            "jobs_per_sec": (done / (makespan_ms / 1e3)
                             if makespan_ms > 0 else 0.0),
            "wait_ms": {"p50": window_percentile(self._waits, 50),
                        "p95": window_percentile(self._waits, 95)},
            "latency_ms": {"p50": window_percentile(self._latencies, 50),
                           "p95": window_percentile(self._latencies, 95)},
            "batches": self.batches,
            # compile-tier counters only: the autotune memo is
            # process-wide (see CompileCache.stats()), so folding its
            # counters in would make per-service stats depend on what
            # ran before in the process
            "cache": {"compile": {k: self.compile_cache.stats()[k]
                                  for k in ("entries", "hits", "misses")},
                      "result": self.result_cache.stats()},
            "durability": durability,
        }

    def health(self) -> dict:
        """Cheap, thread-safe liveness snapshot for high-frequency
        polling (the gateway's ``GET /healthz``).

        Unlike :meth:`stats` it computes no percentiles and walks no
        handle list: per-state counts are maintained incrementally, so
        the cost is O(pool size + heap size) regardless of how many
        jobs the service has ever seen.  Safe to call from a different
        thread than the one driving the scheduler.
        """
        with self._lock:
            states = dict(self._state_counts)
            busy = [s.busy_until_ms for s in self.pool.slots]
            now = self.now_ms
            out = {
                "queue_depth": len(self.queue),
                "queue_capacity": self.queue.capacity,
                "states": states,
                "submitted": sum(states.values()),
                "lease": {"slots": len(busy),
                          "occupied": sum(1 for b in busy if b > now),
                          "busy_until_ms": busy},
                "now_ms": now,
                "executions": self.executions,
                "recovered": {k: (v if isinstance(v, int) else len(v))
                              for k, v in self.recovery.items()},
                "durable": self.durable_dir is not None,
            }
            if self.journal is not None:
                out["journal_bytes"] = self.journal.bytes_appended
            if self.store is not None:
                out["store_entries"] = len(self.store._entries)
            return out

    # -- scheduling core ---------------------------------------------------------
    def _place_batch(self, lead: JobHandle) -> None:
        """Lease devices for ``lead``, co-schedule compatible queued jobs
        on the same lease, and execute them back-to-back."""
        key = CompileCache.key(lead.request, self.pool.devices[0])
        shards = lead.request.shards
        mates = self.queue.take_matching(
            lambda h: (h.request.shards == shards
                       and CompileCache.key(h.request,
                                            self.pool.devices[0]) == key),
            self.max_batch - 1)
        batch = [lead] + mates
        slots, t = self.pool.lease(shards, lead.submit_ms)
        lease_start = t
        self.flight.record(
            "lease", lease_start, job=lead.job_id, trace=lead.trace_id,
            batch=len(batch), shards=shards,
            devices=[s.spec.name for s in slots])
        self._ts("in_flight", len(batch), t=lease_start)
        executed = 0
        for h in batch:
            if h.state != "QUEUED":
                # cancelled/evicted between lease and execution — never
                # double-complete the handle or burn its device time
                continue
            self._transition(h, "RUNNING")
            req = h.request
            t = max(t, h.submit_ms)
            if (req.deadline_ms is not None
                    and t - h.submit_ms > req.deadline_ms):
                self._evict(h, f"deadline missed: modelled start "
                               f"{t - h.submit_ms:.3f}ms after submission "
                               f"exceeds deadline_ms={req.deadline_ms:g}")
                continue
            fp = req.fingerprint()
            cached = self._stored_result(fp)
            if cached is not None:
                self._complete(h, ResultCache.rebase(
                    cached, submit_ms=h.submit_ms, now_ms=t))
                continue
            self._journal("start", h, fp)
            result, error = self._execute(h, slots, start_ms=t,
                                          resume=self._resume.pop(fp, None))
            if result is None:
                self._fail(h, error)
                continue
            t = result.end_ms
            executed += 1
            self._complete_executed(h, fp, result)
        if t > lease_start:               # only real work occupies a lease
            chosen = {id(s) for s in slots}
            for i, s in enumerate(self.pool.slots):
                if id(s) not in chosen:
                    continue
                s.busy_until_ms = max(s.busy_until_ms, t)
                self.slot_busy_ms[i] += t - lease_start
                if self.timeseries is not None:
                    self.timeseries.add_busy(
                        f"util:{i}:{s.spec.name}", lease_start, t)
        self.now_ms = max(self.now_ms, t)
        if executed > 1:
            self.batches += 1
            if self.obs is not None:
                self.obs.metrics.counter(
                    "repro_serve_batches_total",
                    "Leases shared by two or more executed jobs").inc()

    def _execute(self, handle: JobHandle, slots, *, start_ms: float,
                 resume: Checkpoint | None = None
                 ) -> tuple[JobResult | None, str]:
        """Run one job on its lease through :func:`~repro.serve.job.run_job`
        and stamp it on the modelled clock.  Returns (result, "") or
        (None, error).

        ``resume`` is a recovered mid-job :class:`Checkpoint`.  With
        ``checkpoint_every > 0`` the simulation's periodic-checkpoint
        hook persists progress atomically and models ``worker_crash``
        faults at each boundary.  Failed attempts and crashes land in
        the flight recorder; a divergence or crash also dumps it.
        """
        req = handle.request
        fp = req.fingerprint()
        program = None
        if req.backend == "virtual_gpu":
            # only the virtual_gpu backend consumes a compiled host
            # program; host-side backends step their kernels directly
            hits_before = self.compile_cache.hits
            program = self.compile_cache.program_for(req, slots[0].spec)
            self._cache_metric("compile",
                               hit=self.compile_cache.hits > hits_before)

        def on_failure(attempt: int, exc: Exception) -> None:
            handle.attempts = attempt
            if isinstance(exc, WorkerCrash):
                # the (simulated) process is dying: record the incident
                # and flush the black box before the exception unwinds
                self.flight.record(
                    "crash", start_ms, job=handle.job_id,
                    trace=handle.trace_id, attempt=attempt,
                    detail=str(exc)[:200])
                self.dump_blackbox(reason=str(exc)[:200])
                return
            self.flight.record(
                "attempt_failed", start_ms, job=handle.job_id,
                trace=handle.trace_id, attempt=attempt,
                error=type(exc).__name__, detail=str(exc)[:200])
            if isinstance(exc, SimulationDiverged):
                self.dump_blackbox(reason=f"SimulationDiverged: job "
                                          f"{fp[:12]} attempt {attempt}")
            if self.obs is not None:
                self.obs.metrics.counter(
                    "repro_serve_retries_total",
                    "Per-job attempts that ended in a typed failure",
                    ("error",)).inc(error=type(exc).__name__)

        with self._observed():
            result, error = run_job(
                req, tuple(s.spec for s in slots), program=program,
                faults=self.faults, resilient=self.resilient,
                retry=self.retry, attempts=self.job_attempts,
                checkpoint_every=self.checkpoint_every,
                on_checkpoint=self._checkpoint_hook(fp), resume=resume,
                on_failure=on_failure, job_id=handle.job_id,
                trace_id=handle.trace_id)
        if result is None:
            return None, error
        handle.attempts = result.attempts
        duration = result.kernel_time_ms + result.halo_time_ms
        return replace(result, submit_ms=handle.submit_ms, start_ms=start_ms,
                       end_ms=start_ms + duration), ""

    # -- durability --------------------------------------------------------------
    def _journal(self, event: str, handle: JobHandle, fingerprint: str,
                 **payload) -> None:
        """Write-ahead append (no-op when not durable or during replay —
        replayed transitions are already in the journal)."""
        if self.journal is None or self._replaying:
            return
        clean = {k: v for k, v in payload.items() if v is not None}
        self.journal.append(event, fingerprint=fingerprint,
                            job_id=handle.job_id,
                            trace_id=handle.trace_id, **clean)

    def _checkpoint_path(self, fingerprint: str) -> str | None:
        if self.durable_dir is None:
            return None
        return os.path.join(self.durable_dir, "checkpoints",
                            f"{fingerprint}.npz")

    def _checkpoint_hook(self, fingerprint: str):
        """The periodic-checkpoint callback for one job: persist the
        snapshot atomically (durable services), then model worker death
        at the boundary (``worker_crash`` fault)."""
        path = self._checkpoint_path(fingerprint)

        def hook(cp: Checkpoint) -> None:
            if path is not None:
                cp.save(path)
            if self.faults is not None and self.faults.should_inject(
                    "worker_crash", f"worker:{fingerprint[:12]}",
                    step=cp.time_step):
                raise WorkerCrash(
                    f"injected worker crash at step {cp.time_step} of job "
                    f"{fingerprint[:12]}")
        return hook

    def _drop_checkpoint(self, fingerprint: str) -> None:
        path = self._checkpoint_path(fingerprint)
        if path is not None and os.path.exists(path):
            os.remove(path)

    def _load_resume(self, fingerprint: str) -> Checkpoint | None:
        path = self._checkpoint_path(fingerprint)
        if path is None or not os.path.exists(path):
            return None
        try:
            return Checkpoint.load(path)
        except Exception:                 # unreadable snapshot: run fresh
            os.remove(path)
            return None

    @classmethod
    def recover(cls, durable_dir, **kwargs) -> "SimulationService":
        """Rebuild a service from a durable directory by journal replay.

        Pass the same construction keywords (``devices`` etc.) as the
        crashed service — the journal records *what* to run, not the
        pool to run it on.  After recovery:

        * jobs with a ``complete`` record are served straight from the
          on-disk store (no re-execution; a lost or corrupt store entry
          silently downgrades them to re-enqueued);
        * jobs journalled terminal (``fail``/``evict``/``cancel``) stay
          terminal;
        * in-flight jobs (submitted or started, never terminal) are
          re-enqueued, resuming from their last durable mid-job
          checkpoint when one exists;
        * duplicate submits of one fingerprint share a single execution
          (fingerprint-keyed dedup), exactly as they would have live.

        Replay is idempotent: recovering an already-recovered directory
        reproduces the same terminal states with zero executions.
        Raises :class:`~repro.serve.journal.JournalCorrupt` on mid-file
        journal corruption (a torn *tail* is repaired with a warning).
        """
        kwargs["durable_dir"] = durable_dir
        svc = cls(**kwargs)
        svc._replay()
        return svc

    def _replay(self) -> None:
        """Replay the opened journal into handles (see :meth:`recover`)."""
        requests: dict[str, dict] = {}          # fp -> encoded request
        submits: dict[str, int] = {}            # fp -> number of submits
        status: dict[str, tuple[str, dict]] = {}   # fp -> last event
        traces: dict[str, str] = {}             # fp -> journalled trace id
        order: list[str] = []
        for rec in self._journal_records:
            fp = rec.fingerprint
            if rec.event == "submit":
                if fp not in requests:
                    requests[fp] = rec.payload.get("request")
                    order.append(fp)
                submits[fp] = submits.get(fp, 0) + 1
            if rec.trace_id is not None and fp not in traces:
                traces[fp] = rec.trace_id
            status[fp] = (rec.event, rec.payload)
        self._replaying = True
        try:
            for fp in order:
                n = submits[fp]
                self.recovery["deduped"] += n - 1
                request = decode_request(requests[fp])
                handles = []
                for _ in range(n):
                    h = JobHandle(self._next_id, request, self.now_ms, self)
                    # journalled trace context wins; pre-trace journals
                    # fall back to the handle's derived id, which is the
                    # same id the crashed incarnation derived
                    if fp in traces:
                        h.trace_id = traces[fp]
                    self._next_id += 1
                    self._register(h)
                    handles.append(h)
                event, payload = status[fp]
                if event == "complete" and self.store is not None:
                    stored = self.store.get(fp)
                    if stored is not None:
                        self.result_cache.put(fp, stored)
                        for h in handles:
                            self._complete(h, ResultCache.rebase(
                                stored, submit_ms=h.submit_ms,
                                now_ms=self.now_ms))
                        self._recovered(fp, "from_store", n)
                        continue
                    event = "start"     # store lost the payload: re-run
                if event in ("fail", "evict", "cancel"):
                    reason = (payload.get("error") or payload.get("reason")
                              or f"journalled {event}")
                    for h in handles:
                        if event == "fail":
                            self._fail(h, reason)
                        else:
                            self._evict(h, reason)
                    self._recovered(fp, "terminal", n)
                    continue
                cp = self._load_resume(fp)
                if cp is not None:
                    self._resume[fp] = cp
                for h in handles:
                    self.queue.requeue(h)
                self._recovered(fp, "resumed" if cp is not None
                                else "requeued", n)
        finally:
            self._replaying = False
        self._gauge_depth()

    def _recovered(self, fingerprint: str, mode: str, count: int) -> None:
        self.recovery[mode].append(fingerprint)
        self.flight.record("recovered", self.now_ms, fp=fingerprint[:12],
                           mode=mode, count=count)
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_serve_recovered_jobs_total",
                "Jobs reconstructed by journal replay, by recovery mode",
                ("mode",)).inc(count, mode=mode)

    def close(self) -> None:
        """Release the journal's file handle (recovery reopens it)."""
        if self.journal is not None:
            self.journal.close()

    # -- bookkeeping -------------------------------------------------------------
    def _register(self, handle: JobHandle) -> None:
        """Track a freshly admitted handle (counts it in its current,
        normally QUEUED, state)."""
        with self._lock:
            self._state_counts[handle.state] += 1
            self._handles.append(handle)

    def _transition(self, handle: JobHandle, new_state: str) -> None:
        """Move a handle between lifecycle states, keeping the
        incremental per-state counts (and therefore :meth:`health`)
        consistent.  Every state assignment in the service goes through
        here."""
        with self._lock:
            self._state_counts[handle.state] -= 1
            self._state_counts[new_state] += 1
            handle.state = new_state

    def _stored_result(self, fingerprint: str) -> JobResult | None:
        """The result tiers in order: the memory cache, then the durable
        store, whose hit is promoted into the memory cache.  Only the
        memory tier is counted in the cache metrics (the store keeps its
        own counters)."""
        cached = self.result_cache.get(fingerprint)
        self._cache_metric("result", hit=cached is not None)
        if cached is None and self.store is not None:
            cached = self.store.get(fingerprint)
            if cached is not None:
                self.result_cache.put(fingerprint, cached)
        return cached

    def _complete_executed(self, handle: JobHandle, fingerprint: str,
                           result: JobResult) -> None:
        """Complete ``handle`` with a freshly executed result,
        durable-before-visible: the store write precedes the memory
        cache, the journal's complete record and the in-memory
        completion; the job's checkpoint is dropped last."""
        self.executions += 1
        self.executed_fingerprints.append(fingerprint)
        if self.store is not None:
            self.store.put(fingerprint, result)
        self.result_cache.put(fingerprint, result)
        self._complete(handle, result)
        self._drop_checkpoint(fingerprint)

    def _complete(self, handle: JobHandle, result: JobResult) -> None:
        self._journal("complete", handle, handle.request.fingerprint(),
                      end_ms=result.end_ms, from_cache=result.from_cache)
        self._transition(handle, "DONE")
        handle._finish(result)
        self._waits.append(result.wait_ms)
        self._latencies.append(result.latency_ms)
        self.flight.record(
            "complete", result.end_ms, job=handle.job_id,
            trace=handle.trace_id, from_cache=result.from_cache,
            attempts=result.attempts,
            latency_ms=round(result.latency_ms, 6))
        if self.timeseries is not None:
            t = result.end_ms
            self.timeseries.observe("completed", t)
            self.timeseries.observe("wait_ms", t, result.wait_ms)
            self.timeseries.observe("latency_ms", t, result.latency_ms)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("repro_serve_jobs_total",
                      "Jobs by terminal state", ("state",)).inc(state="DONE")
            m.histogram("repro_serve_wait_ms",
                        "Modelled queue wait per completed job").observe(
                            result.wait_ms)
            m.histogram("repro_serve_latency_ms",
                        "Modelled submit-to-done latency per completed "
                        "job").observe(result.latency_ms)
            self.obs.tracer.event(
                "serve.job", "serve", 0.0, job_id=handle.job_id,
                scheme=result.scheme, state="DONE",
                from_cache=result.from_cache, attempts=result.attempts,
                wait_ms=round(result.wait_ms, 6),
                latency_ms=round(result.latency_ms, 6))
            self._lane(handle, result.submit_ms, result.start_ms,
                       result.end_ms, state="DONE",
                       from_cache=result.from_cache,
                       attempts=result.attempts,
                       devices=",".join(result.devices))
        self._slo_eval(result.end_ms)

    def _fail(self, handle: JobHandle, error: str) -> None:
        self._journal("fail", handle, handle.request.fingerprint(),
                      error=error[:500])
        self._transition(handle, "FAILED")
        handle._fail(error)
        self.flight.record("fail", self.now_ms, job=handle.job_id,
                           trace=handle.trace_id, error=error[:200])
        if self.timeseries is not None:
            self.timeseries.observe("failed", self.now_ms)
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_serve_jobs_total", "Jobs by terminal state",
                ("state",)).inc(state="FAILED")
            self.obs.tracer.event("serve.job", "serve", 0.0,
                                  job_id=handle.job_id, state="FAILED",
                                  error=error[:200])
            self._lane(handle, handle.submit_ms, self.now_ms, self.now_ms,
                       state="FAILED", error=error[:200])
        self._slo_eval(self.now_ms)

    def _evict(self, handle: JobHandle, reason: str) -> None:
        self._journal("cancel" if reason == "cancelled" else "evict",
                      handle, handle.request.fingerprint(),
                      reason=reason[:500])
        handle.error = reason
        self._transition(handle, "EVICTED")
        self.flight.record("evict", self.now_ms, job=handle.job_id,
                           trace=handle.trace_id, reason=reason[:200])
        if self.timeseries is not None:
            self.timeseries.observe("evicted", self.now_ms)
        if self.obs is not None:
            self.obs.metrics.counter(
                "repro_serve_jobs_total", "Jobs by terminal state",
                ("state",)).inc(state="EVICTED")
            self.obs.tracer.event("serve.job", "serve", 0.0,
                                  job_id=handle.job_id, state="EVICTED",
                                  reason=reason[:200])
            self._lane(handle, handle.submit_ms, self.now_ms, self.now_ms,
                       state="EVICTED", reason=reason[:200])
        self._slo_eval(self.now_ms)
        self._gauge_depth()

    def _lane(self, handle: JobHandle, submit_ms: float, start_ms: float,
              end_ms: float, **attrs) -> None:
        """Record the job's lifecycle lane: a ``job`` span over its whole
        submit→terminal life, with ``job.wait`` / ``job.run`` children.
        These are retroactive :meth:`~repro.obs.Tracer.interval` spans —
        service-clock arithmetic, never clock advances — and carry
        ``trace_id`` so the Chrome exporter pins each trace to its own
        lane (one ``tid`` per trace)."""
        tr = self.obs.tracer
        job = tr.interval("job", "job", submit_ms, end_ms,
                          trace_id=handle.trace_id, job_id=handle.job_id,
                          **attrs)
        if start_ms > submit_ms:
            tr.interval("job.wait", "job", submit_ms, start_ms, parent=job,
                        trace_id=handle.trace_id, job_id=handle.job_id)
        if end_ms > start_ms:
            tr.interval("job.run", "job", start_ms, end_ms, parent=job,
                        trace_id=handle.trace_id, job_id=handle.job_id)

    def _slo_eval(self, now_ms: float) -> None:
        if self.slo is not None:
            self.slo.evaluate(now_ms, obs=self.obs)

    def _observed(self):
        if self.obs is None:
            from contextlib import nullcontext
            return nullcontext()
        return _obs.observe(self.obs)

    def _ts(self, name: str, value: float = 1.0,
            t: float | None = None) -> None:
        """One time-series observation at the service clock (no-op with
        observability off)."""
        if self.timeseries is not None:
            self.timeseries.observe(
                name, self.now_ms if t is None else t, value)

    def dump_blackbox(self, path=None, reason: str = "") -> dict | None:
        """Dump the flight recorder to JSON — the service's black box.

        Defaults to ``<durable_dir>/flight-recorder.json``; a
        non-durable service with no explicit ``path`` returns ``None``
        (nowhere durable to put it).  Called automatically on
        :class:`~repro.acoustics.sim.SimulationDiverged` and on a
        (simulated) worker crash; the chaos harness collects one dump
        per incarnation.
        """
        if path is None:
            if self.durable_dir is None:
                return None
            path = os.path.join(self.durable_dir, "flight-recorder.json")
        return self.flight.dump(path, reason=reason)

    def _gauge_depth(self) -> None:
        if self.obs is not None:
            self.obs.metrics.gauge(
                "repro_serve_queue_depth",
                "Live jobs waiting in the admission queue").set(
                    len(self.queue))

    def _cache_metric(self, tier: str, *, hit: bool) -> None:
        if self.obs is None:
            return
        name = ("repro_serve_cache_hits_total" if hit
                else "repro_serve_cache_misses_total")
        self.obs.metrics.counter(
            name, "Service cache lookups by tier and outcome",
            ("tier",)).inc(tier=tier)
        self._ts(f"cache_{'hit' if hit else 'miss'}:{tier}")

    def __repr__(self) -> str:
        names = ",".join(d.name for d in self.pool.devices)
        return (f"SimulationService(pool=({names}), queued={len(self.queue)}, "
                f"submitted={len(self._handles)})")
