"""Recovery policies on top of the virtual OpenCL runtime.

:class:`ResilientGPU` wraps a :class:`~.runtime.VirtualGPU` with the
degradation ladder a production host would implement around the paper's
Listing-5 orchestration:

1. **retry with backoff** — transient errors (lost device, aborted
   launch, failed/corrupted transfer, allocation race) are retried up to
   ``RetryPolicy.max_attempts`` times; each wait adds a modelled
   ``backoff`` :class:`~.runtime.ProfilingEvent` so recovery overhead is
   visible in the profiled timeline without perturbing kernel times;
2. **launch degradation** — if retries on the tuned configuration keep
   aborting with ``CL_OUT_OF_RESOURCES``, re-submit with autotuning off
   and the smallest workgroup (the standard driver-level mitigation for
   oversized launches: smaller workgroups split the launch into more,
   lighter hardware waves);
3. **re-queue on a fallback device** — the work is re-run on the next
   device in ``fallback_devices`` (same inputs, so results stay
   bit-identical);
4. **host fallback** — as a last resort the work runs through the plain
   NumPy backend on the host: same kernels, same results, but the events
   are relabelled ``host_*`` so no GPU kernel time is charged.

One ladder (:meth:`ResilientGPU._run`) climbs these stages over an
attempt: a whole ``execute`` / ``execute_many`` call, or one step of a
resident plan (:meth:`ResilientGPU.stepping`, :class:`LadderPlan`).  A
step is safe to re-run: :meth:`~.runtime.ResidentPlan.run_fused`
consults the fault plan at every launch site before the step stores
anything, so a failed step leaves the state at the step before.

Every decision is appended to :attr:`ResilientGPU.log` as a
:class:`PolicyOutcome`, the machine-readable policy log the acceptance
tests (and operators) audit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .. import obs as _obs
from .device import DeviceSpec
from .errors import (ClDeviceLost, ClError, ClOutOfResources,
                     TRANSIENT_ERRORS)
from .runtime import ProfilingEvent, ResidentPlan, RunResult, VirtualGPU


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-backoff configuration (times are modelled, not slept)."""

    max_attempts: int = 4            # total attempts per device, incl. first
    backoff_ms: float = 0.05         # modelled wait before the 1st retry
    backoff_factor: float = 2.0      # exponential growth per retry
    #: error classes worth retrying on the same device
    retry_on: tuple[type[ClError], ...] = TRANSIENT_ERRORS

    def delay_ms(self, retry_index: int) -> float:
        """Modelled backoff before retry ``retry_index`` (0-based)."""
        return self.backoff_ms * self.backoff_factor ** retry_index


def shard_retry_policy(base: RetryPolicy | None = None) -> RetryPolicy:
    """The per-shard variant of a retry policy: everything transient is
    retried on-device *except* a lost device.

    A shard of a decomposed simulation holds live halo state; retrying a
    dead die in place cannot restore it.  The right recovery is global —
    drop the device, re-shard, and replay from the last checkpoint — so
    ``CL_DEVICE_LOST`` must escalate out of the shard executor (as
    :class:`repro.gpu.multi.ShardLost`) instead of being absorbed here.
    """
    base = base or RetryPolicy()
    return replace(base, retry_on=tuple(
        t for t in base.retry_on if t is not ClDeviceLost))


@dataclass
class PolicyOutcome:
    """One recovery decision, for the policy log."""

    method: str                  # "execute" | "execute_many" | "step"
    device: str                  # device the failing attempt ran on
    attempt: int                 # 1-based attempt index on that device
    error: str                   # OpenCL status name of the failure
    action: str                  # "retry" | "degrade_launch" |
    #                              "fallback_device" | "host_fallback" |
    #                              "raise" | "recovered"
    injected: bool = False       # fault-plan error vs real accounting
    backoff_ms: float = 0.0      # modelled wait added (retry only)
    detail: str = ""


class ResilientGPU:
    """A fault-tolerant executor with the same interface as VirtualGPU.

    Wraps a primary :class:`VirtualGPU`; optional ``fallback_devices``
    are tried in order once the primary's retry/degrade budget is spent,
    and ``host_fallback`` enables the final CPU path.  All recovery is
    logged in :attr:`log`.
    """

    def __init__(self, gpu: VirtualGPU, retry: RetryPolicy | None = None,
                 fallback_devices: Sequence[DeviceSpec] = (),
                 host_fallback: bool = True):
        self.gpu = gpu
        self.retry = retry or RetryPolicy()
        self.fallback_devices = tuple(fallback_devices)
        self.host_fallback = host_fallback
        self.log: list[PolicyOutcome] = []

    @property
    def device(self) -> DeviceSpec:
        return self.gpu.device

    # -- public interface (mirrors VirtualGPU) -------------------------------------
    def compile_step(self, plan, leapfrog):
        return self.gpu.compile_step(plan, leapfrog)

    def execute(self, program, inputs, sizes, **kw) -> RunResult:
        return self._run("execute", self._attempt_plan(), lambda _, gpu:
                         gpu.execute(program, inputs, sizes, **kw))

    def execute_many(self, program, inputs, sizes, steps, **kw) -> RunResult:
        return self._run("execute_many", self._attempt_plan(), lambda _, gpu:
                         gpu.execute_many(program, inputs, sizes, steps, **kw))

    def stepping(self, plan, inputs, sizes, rotations, events,
                 in_place=None, *, setup_step=None) -> "LadderPlan":
        """``plan`` to step under the ladder (:class:`LadderPlan`); its
        plans open at the step that first runs them (``setup_step``)."""
        return LadderPlan(self, (plan, inputs, sizes, rotations), events,
                          in_place or {})

    def recovered_faults(self) -> int:
        """Number of failures that a policy action recovered from."""
        return sum(1 for o in self.log
                   if o.action in ("retry", "degrade_launch",
                                   "fallback_device", "host_fallback"))

    def _note(self, outcome: PolicyOutcome) -> None:
        """Append to the policy log and mirror the decision as metrics."""
        self.log.append(outcome)
        o = _obs.get()
        if o is None:
            return
        o.metrics.counter(
            "repro_gpu_recovery_actions_total",
            "Recovery-policy decisions by action and error",
            ("action", "error")).inc(
                action=outcome.action, error=outcome.error or "none")
        if outcome.action == "retry":
            o.metrics.counter(
                "repro_gpu_retries_total",
                "Same-device retry attempts by OpenCL status",
                ("error",)).inc(error=outcome.error)

    # -- the degradation ladder -------------------------------------------------------
    def _attempt_plan(self) -> list[tuple[str, VirtualGPU, str]]:
        """(stage-name, executor, detail) in escalation order."""
        g = self.gpu
        stages = [("primary", g, g.device.name)]
        if g.autotune:
            degraded = VirtualGPU(g.device, g.traits, autotune=False,
                                  workgroup=g.device.warp_size,
                                  faults=g.faults)
            stages.append(("degrade_launch", degraded,
                           f"workgroup={g.device.warp_size}, autotune off"))
        for dev in self.fallback_devices:
            # a fallback device is different hardware: it does not inherit
            # the primary's fault plan (re-queuing escapes a sick device)
            stages.append(("fallback_device",
                           VirtualGPU(dev, g.traits, g.autotune,
                                      g.workgroup),
                           dev.name))
        if self.host_fallback:
            host_dev = replace(g.device, name=f"{g.device.name}-host",
                               global_mem_bytes=0)
            stages.append(("host_fallback",
                           VirtualGPU(host_dev, g.traits, autotune=False,
                                      workgroup=g.device.warp_size),
                           "plain NumPy backend on the host"))
        for _, gpu, _ in stages[1:]:
            # every stage stamps ProfilingEvents on the primary's clock so
            # the recovered timeline stays monotonic across escalations
            gpu.clock = g.clock
        return stages

    def _run(self, method: str, stages, attempt) -> RunResult:
        """Climb ``stages`` (:meth:`_attempt_plan`) until
        ``attempt(stage_index, gpu)`` returns a :class:`RunResult`, and
        put the recovery events (backoff, discarded attempts) before its
        own.

        The runtime attaches a failed attempt's ProfilingEvents to the
        raised :class:`ClError`; they are kept with a ``failed_`` kind
        prefix and ``attemptN:``-prefixed names, so the discarded work is
        auditable without double-counting — ``RunResult.kernel_time_ms``
        only sums kind ``"kernel"``, and name-prefix filters keep
        matching the winning attempt's launches only."""
        recovery: list[ProfilingEvent] = []
        recovering_from: PolicyOutcome | None = None
        err: ClError | None = None
        o = _obs.get()
        for si, (stage, gpu, _) in enumerate(stages):
            # the degrade stage only mitigates CL_OUT_OF_RESOURCES
            if stage == "degrade_launch" and not isinstance(
                    err, ClOutOfResources):
                continue
            for n in range(1, self.retry.max_attempts + 1):
                span = (o.tracer.start("resilient.attempt", "resilient",
                                       stage=stage, attempt=n,
                                       device=gpu.device.name, method=method)
                        if o is not None else None)
                try:
                    res: RunResult = attempt(si, gpu)
                except ClError as failed:
                    err = failed
                    if span is not None:
                        span.attrs.update(outcome="failed",
                                          error=err.status_name,
                                          injected=err.injected)
                        o.tracer.end(span)
                        # keep the discarded launches on the timeline but
                        # out of the kernel report / Table-IV aggregation
                        for s in o.tracer.descendants_of(span):
                            if s.cat == "kernel":
                                s.cat = "failed_kernel"
                    recovery += [ProfilingEvent(
                        f"failed_{e.kind}", f"attempt{n}:{e.name}",
                        e.duration_ms, e.timing, start_ms=e.start_ms)
                        for e in getattr(err, "events", None) or []]
                    retryable = isinstance(err, self.retry.retry_on)
                    # a buffer over the device's per-allocation cap can
                    # still fit a larger fallback device / the host;
                    # programming errors (invalid args/sizes) surface
                    if not (retryable or "max_alloc_bytes" in err.context):
                        self._note(PolicyOutcome(
                            method, gpu.device.name, n, err.status_name,
                            "raise", err.injected, detail=str(err)))
                        raise
                    if retryable and n < self.retry.max_attempts:
                        delay = self.retry.delay_ms(n - 1)
                        if o is not None:
                            start = o.tracer.event(
                                f"retry:{err.status_name}", "backoff", delay,
                                error=err.status_name, attempt=n,
                                injected=err.injected).start_ms
                        else:
                            start = gpu.clock.now_ms
                            gpu.clock.advance(delay)
                        recovery.append(ProfilingEvent(
                            "backoff", f"retry:{err.status_name}", delay,
                            start_ms=start))
                        recovering_from = PolicyOutcome(
                            method, gpu.device.name, n, err.status_name,
                            "retry", err.injected, backoff_ms=delay,
                            detail=str(err))
                        self._note(recovering_from)
                        continue
                    # retry budget spent on this stage: escalate
                    up = next((st for st in stages[si + 1:]
                               if st[0] != "degrade_launch"
                               or isinstance(err, ClOutOfResources)), None)
                    recovering_from = PolicyOutcome(
                        method, gpu.device.name, n, err.status_name,
                        up[0] if up else "raise", err.injected,
                        detail=(f"escalating to {up[2]}" if up else
                                "degradation ladder exhausted"))
                    self._note(recovering_from)
                    if up is None:
                        raise
                    break
                if span is not None:
                    span.attrs["outcome"] = "ok"
                    o.tracer.end(span)
                if stage == "host_fallback":
                    # host-fallback runs charge no GPU kernel or PCIe time
                    for e in res.events:
                        if e.kind in ("kernel", "h2d", "d2h"):
                            e.kind, e.duration_ms = f"host_{e.kind}", 0.0
                if recovering_from is not None:
                    self._note(PolicyOutcome(
                        method, gpu.device.name, n, "", "recovered",
                        detail=f"after {recovering_from.error} via "
                               f"{recovering_from.action}"))
                res.events[:0] = recovery
                return res
        raise err if err is not None else ClError(
            f"no execution stage available for {method}")


class LadderPlan:
    """A resident plan stepped under :class:`ResilientGPU`'s ladder: each
    :meth:`run_fused` is one climb, each attempt one
    :meth:`~.runtime.ResidentPlan.run_fused` on its stage's plan.

    A stage's :class:`~.runtime.ResidentPlan` opens the first time a
    step reaches the stage (its allocation and upload sites stamped with
    that step) and is kept; a lost device's plan re-opens at its next
    attempt.  The first plan opened holds the state (the caller's
    ``in_place`` arrays, else fresh buffers); every later one binds that
    plan's current buffers in place, so all stages step one set of
    arrays, and :meth:`rotate` turns them all.  ``events`` collects the
    winning attempts' events, each after its recovery events."""

    def __init__(self, owner: ResilientGPU, spec: tuple, events: list,
                 in_place: dict):
        self.owner, self.stages = owner, owner._attempt_plan()
        self._spec, self._in_place, self.events = spec, in_place, events
        #: stage index -> its open plan; the stages whose device was lost
        self._plans: dict[int, ResidentPlan] = {}
        self._lost: set[int] = set()
        self._current: ResidentPlan | None = None   # the last winner's

    def _climb(self, step: int | None, run: bool, **span_attrs) -> None:
        plan, inputs, sizes, rotations = self._spec

        def attempt(si: int, gpu: VirtualGPU) -> RunResult:
            ev: list[ProfilingEvent] = []
            st = self._plans.get(si)
            try:
                if st is None or si in self._lost:
                    src = st or next(iter(self._plans.values()), None)
                    state = (self._in_place if src is None else
                             {n: src.buffer_for(n) for n in src.binding})
                    st = self._plans[si] = gpu.stepping(
                        plan, {**inputs, **state}, sizes, rotations, ev,
                        state, setup_step=step)
                    self._lost.discard(si)
                if run:
                    st.events = ev
                    st.run_fused(step, **span_attrs)
            except ClError as err:
                if isinstance(err, ClDeviceLost):
                    self._lost.add(si)
                err.events = ev
                raise
            self._current = st
            return RunResult(None, {}, ev)

        self.events += self.owner._run("step", self.stages, attempt).events

    def run_fused(self, step: int, **span_attrs) -> None:
        """One step, retried and escalated until a stage completes it."""
        self._climb(step, True, **span_attrs)

    def rotate(self) -> None:
        for st in self._plans.values():
            st.rotate()

    def _now(self) -> ResidentPlan:
        if self._current is None:       # no step yet: open one
            self._climb(None, False)
        return self._current

    def buffer_for(self, name: str):
        return self._now().buffer_for(name)

    def finish(self) -> RunResult:
        st = self._now()
        st.events = self.events
        return st.finish()
