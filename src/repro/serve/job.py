"""Job objects of the simulation service: requests, handles, results.

A :class:`SubmitRequest` is everything a client says about one desired
simulation — the room, scheme, steps, precision, a scheduling priority
and an optional modelled deadline.  Submitting one to a
:class:`~repro.serve.scheduler.SimulationService` returns a
:class:`JobHandle`, a future over the job's lifecycle::

    QUEUED --> RUNNING --> DONE
       |           \\-----> FAILED      (typed error after retries)
       \\------------------> EVICTED    (deadline missed / cancelled /
                                        rejected retroactively)

All times are **modelled milliseconds** on the service's clock (the same
discipline as the virtual GPU runtime), so wait/latency numbers are
bit-reproducible run to run.  ``JobHandle.result()`` drives the
scheduler until the job is terminal — the service is cooperative and
single-threaded, like the sequential host programs it serves, so
"async" means *deterministically interleaved*, not threaded.

:func:`run_job` is the one code path that turns a request into a
:class:`JobResult`; the in-process scheduler and the gateway's pool
workers both call it, so a job computes the same bits on either side
of the process boundary.  :func:`verify_against_serial` is the one
oracle that checks such a result against an independent serial
:meth:`repro.api.Session.simulate`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import obs as _obs
from ..acoustics.geometry import Room
from ..acoustics.sim import (SCHEMES, RoomSimulation, SimConfig,
                             SimulationDiverged)
from ..gpu.errors import ClError
from .journal import WorkerCrash

if TYPE_CHECKING:   # pragma: no cover - typing only
    from .scheduler import SimulationService

#: the job lifecycle states (terminal: DONE / FAILED / EVICTED)
JOB_STATES = ("QUEUED", "RUNNING", "DONE", "FAILED", "EVICTED")


def derive_trace_id(fingerprint: str) -> str:
    """The trace id of a job, derived from its content fingerprint.

    Deriving (rather than generating) the id is what makes trace
    context survive crashes for free: a recovered incarnation
    re-deriving the id from the journalled request lands on the same
    trace, so pre- and post-crash spans stitch into one per-job lane —
    and journals written before trace ids existed still replay into
    correctly-identified traces.  Duplicate submits of one fingerprint
    deliberately share a lane: they share an answer.
    """
    return "t-" + fingerprint[:16]


class JobError(Exception):
    """Raised by :meth:`JobHandle.result` for FAILED/EVICTED jobs;
    carries the handle so callers can inspect ``handle.error``."""

    def __init__(self, handle: "JobHandle"):
        self.handle = handle
        super().__init__(
            f"job {handle.job_id} is {handle.state}: {handle.error}")


@dataclass(frozen=True)
class SubmitRequest:
    """One simulation the service is asked to run.

    ``priority`` — larger runs earlier (ties broken by submission
    order).  ``deadline_ms`` — modelled milliseconds after submission by
    which the job must have *started*; a job whose earliest possible
    start exceeds it is EVICTED instead of run (admission-by-deadline).
    ``shards`` — how many devices of the pool to lease; more than one
    runs the job Z-slab-decomposed (bit-identical to one device).
    ``backend`` — which execution backend steps the job (any member of
    :data:`repro.acoustics.sim.BACKENDS`); like ``shards`` it changes
    how the answer is computed, never what it is.
    """

    room: Room
    steps: int
    scheme: str = "fi_mm"
    precision: str = "double"
    priority: int = 0
    deadline_ms: float | None = None
    impulse: object = "center"
    receivers: tuple[tuple[str, object], ...] | dict | None = None
    materials: object = None
    num_branches: int = 3
    shards: int = 1
    backend: str = "virtual_gpu"

    def validate(self) -> None:
        """Admission-control checks (raise ``ValueError`` on bad input)."""
        from ..acoustics.sim import BACKENDS
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"one of {SCHEMES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"one of {BACKENDS}")
        if self.precision not in ("single", "double"):
            raise ValueError("precision must be 'single' or 'double'")
        if self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}")

    def receiver_items(self) -> tuple[tuple[str, object], ...]:
        """Receivers as a canonically ordered tuple of (name, pos)."""
        if not self.receivers:
            return ()
        items = (self.receivers.items()
                 if isinstance(self.receivers, dict) else self.receivers)
        return tuple(sorted((str(k), v) for k, v in items))

    def fingerprint(self) -> str:
        """Content address of this request (the result-cache key).

        Two requests with the same fingerprint are guaranteed the same
        result, because the stepper is deterministic and every input
        that reaches it is folded in: grid dims + Courant number, the
        boundary shape (class name + ``repr``, which for the repo's
        frozen shape dataclasses encodes all parameters), scheme /
        precision / steps / branches, source and receivers, and the
        material set.  Scheduling and execution knobs (priority,
        deadline, shards, **backend**) are deliberately *excluded* —
        they change when, where and how fast a job runs, never what it
        computes: multi-device decomposition is bit-identical by
        construction, and every registered backend is bit-identical to
        every other (enforced by the cross-backend matrix test), so a
        cached answer computed under one backend is *the* answer under
        all of them.
        """
        g = self.room.grid
        mats = (None if self.materials is None
                else tuple(repr(m) for m in self.materials))
        basis = repr((
            ("grid", g.nx, g.ny, g.nz, float(g.courant)),
            ("shape", type(self.room.shape).__name__, repr(self.room.shape)),
            ("scheme", self.scheme, self.precision, int(self.steps),
             int(self.num_branches)),
            ("impulse", self.impulse),
            ("receivers", self.receiver_items()),
            ("materials", mats),
        ))
        return hashlib.sha1(basis.encode()).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """Outcome of one served job.

    Mirrors :class:`repro.api.SimulationResult` (same field / timing /
    receiver payload — the bit-identity tests compare them directly)
    plus the service-level accounting: when the job was submitted,
    started and finished on the modelled clock, whether it was answered
    from the result cache, and how many attempts the retry escalation
    used.
    """

    field: np.ndarray
    time_step: int
    scheme: str
    precision: str
    devices: tuple[str, ...]
    kernel_time_ms: float
    halo_time_ms: float
    receivers: dict[str, np.ndarray] = field(default_factory=dict)
    policy_log: tuple = ()
    submit_ms: float = 0.0
    start_ms: float = 0.0
    end_ms: float = 0.0
    from_cache: bool = False
    #: loaded from the durable on-disk store (second tier) rather than
    #: computed or found in the in-memory cache
    from_store: bool = False
    attempts: int = 1
    #: the stepping path that computed the answer
    #: (``RoomSimulation._path``: ``resident``, ``pool-loop``,
    #: ``parallel``, ...); empty for a result loaded from the store
    path: str = ""
    #: per shard of the last ``parallel`` segment, the schedule its
    #: worker ran (``overlap`` or ``bsp``); empty on every other path
    shard_modes: tuple[str, ...] = ()

    @property
    def wait_ms(self) -> float:
        """Modelled time spent queued before execution started."""
        return self.start_ms - self.submit_ms

    @property
    def latency_ms(self) -> float:
        """Modelled submit-to-completion time."""
        return self.end_ms - self.submit_ms


class JobHandle:
    """A client's future over one submitted job.

    ``state`` walks :data:`JOB_STATES`; :meth:`result` drives the
    owning service's scheduler until this job is terminal and returns
    the :class:`JobResult` (or raises :class:`JobError`);
    :meth:`cancel` evicts a still-QUEUED job.
    """

    def __init__(self, job_id: int, request: SubmitRequest,
                 submit_ms: float, service: "SimulationService"):
        self.job_id = job_id
        self.request = request
        self.submit_ms = submit_ms
        #: trace context: every span/lifecycle event of this job carries
        #: it (see :func:`derive_trace_id`); recovery may overwrite it
        #: with the journalled value
        self.trace_id = derive_trace_id(request.fingerprint())
        self.state = "QUEUED"
        self.error: str | None = None
        self.attempts = 0
        self._result: JobResult | None = None
        self._service = service

    # -- future interface --------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("DONE", "FAILED", "EVICTED")

    def result(self) -> JobResult:
        """The job's result, scheduling queued work as needed.

        Raises :class:`JobError` if the job FAILED or was EVICTED.
        """
        if not self.done:
            self._service.drain(until=self)
        if self.state != "DONE" or self._result is None:
            raise JobError(self)
        return self._result

    def cancel(self) -> bool:
        """Evict the job if it has not started; returns success."""
        if self.state != "QUEUED":
            return False
        self._service._evict(self, "cancelled")
        return True

    # -- service-side transitions ------------------------------------------------
    def _finish(self, result: JobResult) -> None:
        self._result = result
        self.state = "DONE"

    def _fail(self, error: str) -> None:
        self.error = error
        self.state = "FAILED"

    def __repr__(self) -> str:
        return (f"JobHandle(#{self.job_id}, {self.request.scheme}/"
                f"{self.request.precision}, prio={self.request.priority}, "
                f"{self.state})")


def run_job(request: SubmitRequest, lease, *, program=None, faults=None,
            resilient: bool = False, retry=None, attempts: int = 1,
            checkpoint_every: int = 0, on_checkpoint=None, resume=None,
            on_failure=None, job_id: int | None = None,
            trace_id: str | None = None) -> tuple[JobResult | None, str]:
    """Run one request on the devices of ``lease``, retrying with
    escalation; returns ``(result, "")`` or ``(None, error)``.

    Attempt 1 runs with ``resilient`` as given; every later attempt
    forces the resilient executor, so the fault layer's retry/degrade/
    fallback ladder engages.  A typed failure (:class:`ClError`,
    :class:`SimulationDiverged`) ends its attempt with the error
    ``"attempt k: ..."``; after ``attempts`` of them the job has failed.
    ``on_failure(attempt, exc)`` is called for each failed attempt and
    for a :class:`~repro.serve.journal.WorkerCrash`, which then
    propagates: the (modelled) process is dying.

    ``program`` is a compiled host program for the ``virtual_gpu``
    backend (``None`` compiles per simulation).  More than one leased
    device runs Z-slab-decomposed on a ``MultiGPU(..., parallel=True)``
    pool, whose shard workers are handed the simulation's host program
    (``program`` when given) instead of rebuilding it — in a gateway pool
    worker too; a pool the parallel executor cannot run
    (``MultiGPU._parallel_eligible``: faults, resilient ladders) steps
    the same segments in ``MultiGPU.execute_many``'s in-process loop
    instead (``pool-loop``).  The result's ``path`` and ``shard_modes``
    say which of these ran.
    ``resume`` is a mid-job :class:`~repro.acoustics.sim.Checkpoint`:
    the simulation restores it and runs only the remaining steps, which
    is bit-identical to an unbroken run.  ``on_checkpoint`` is called
    every ``checkpoint_every`` steps.

    Each attempt runs inside a ``serve.execute`` span carrying the job's
    trace context (a no-op when no observability session is active).
    The result's clock stamps (``submit_ms`` / ``start_ms`` /
    ``end_ms``) are left at zero for the caller to set.
    """
    fp = request.fingerprint()
    if trace_id is None:
        trace_id = derive_trace_id(fp)
    error = ""
    for attempt in range(1, attempts + 1):
        cfg = SimConfig(
            room=request.room, scheme=request.scheme,
            backend=request.backend, precision=request.precision,
            materials=request.materials, num_branches=request.num_branches,
            faults=faults, resilient=resilient or attempt > 1, retry=retry,
            devices=tuple(lease), host_program=program,
            parallel=len(lease) > 1,
            checkpoint_interval=checkpoint_every, on_checkpoint=on_checkpoint)
        try:
            # every gpu.*/sim.* span opened underneath nests inside this
            # one, so the whole attempt carries the job's trace context
            with _obs.span("serve.execute", "serve", trace_id=trace_id,
                           job_id=job_id, attempt=attempt,
                           scheme=request.scheme, fingerprint=fp[:12]):
                sim = RoomSimulation(cfg)
                if resume is not None:
                    sim.restore(resume)
                else:
                    if request.impulse is not None:
                        sim.add_impulse(request.impulse)
                    for name, pos in request.receiver_items():
                        sim.add_receiver(name, pos)
                sim.run(request.steps - sim.time_step)
        except (ClError, SimulationDiverged) as failed:
            error = f"attempt {attempt}: {failed}"
            if on_failure is not None:
                on_failure(attempt, failed)
            continue
        except WorkerCrash as death:
            if on_failure is not None:
                on_failure(attempt, death)
            raise
        overlap = sim.last_overlap if sim._path == "parallel" else None
        shard_modes = tuple(p["mode"]
                            for p in (overlap or {}).get("per_shard", ()))
        return JobResult(
            field=sim.curr[:sim._N].copy(), time_step=sim.time_step,
            scheme=request.scheme, precision=request.precision,
            devices=tuple(d.name for d in (sim.devices or lease)),
            kernel_time_ms=sim.modelled_gpu_time_ms,
            halo_time_ms=sim.modelled_halo_time_ms,
            receivers={k: sim.receiver_signal(k) for k in sim.receivers},
            policy_log=tuple(sim.policy_log), attempts=attempt,
            path=sim._path, shard_modes=shard_modes), ""
    return None, error or "exhausted retry budget"


def verify_against_serial(request: SubmitRequest, field: np.ndarray,
                          receivers: dict) -> list[str]:
    """Mismatches of a job's ``field`` and ``receivers`` (name → signal)
    against an uninterrupted serial :meth:`repro.api.Session.simulate`
    of ``request``; empty when they are bit-identical.

    Every field of the request that determines the answer reaches the
    reference (room, steps, scheme, precision, impulse, receivers,
    materials, branch count); the scheduling and execution knobs do not,
    because they never change it.
    """
    from ..api import Session
    ref = Session().simulate(
        request.room, request.steps, scheme=request.scheme,
        precision=request.precision, impulse=request.impulse,
        receivers=dict(request.receiver_items()) or None,
        materials=request.materials, num_branches=request.num_branches)
    tag = f"job {request.fingerprint()[:12]}"
    errors = []
    if not np.array_equal(field, ref.field):
        errors.append(f"{tag}: field differs from serial run")
    for name, sig in ref.receivers.items():
        if not np.array_equal(receivers.get(name), sig):
            errors.append(f"{tag}: receiver {name!r} differs")
    return errors
