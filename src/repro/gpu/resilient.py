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
3. **re-queue on a fallback device** — the whole program is re-run on the
   next device in ``fallback_devices`` (fresh buffers, same inputs, so
   results stay bit-identical);
4. **host fallback** — as a last resort the plan runs through the plain
   NumPy backend on the host: same kernels, same results, but the events
   are relabelled ``host_*`` so no GPU kernel time is charged.

Every decision is appended to :attr:`ResilientGPU.log` as a
:class:`PolicyOutcome`, the machine-readable policy log the acceptance
tests (and operators) audit.

Retries are only safe because ``execute``/``execute_many`` allocate fresh
device buffers per call and never mutate host inputs — re-running a
failed call is idempotent, which is what makes recovered runs
bit-identical to fault-free ones.  A
:class:`~.runtime.ResidentPlan` opened with ``in_place`` arrays gives
that up (its launches write the caller's memory), so
:class:`repro.acoustics.RoomSimulation` steps device-resident only when
neither this wrapper nor a fault plan is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .. import obs as _obs
from .device import DeviceSpec
from .errors import (ClDeviceLost, ClError, ClOutOfResources,
                     TRANSIENT_ERRORS)
from .runtime import ProfilingEvent, RunResult, VirtualGPU


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

    method: str                  # "execute" | "execute_many"
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
    def execute(self, program, inputs, sizes, **kw) -> RunResult:
        return self._run("execute", program, inputs, sizes, **kw)

    def execute_many(self, program, inputs, sizes, steps, **kw) -> RunResult:
        return self._run("execute_many", program, inputs, sizes, steps, **kw)

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

    @staticmethod
    def _keep_failed_events(recovery_events: list[ProfilingEvent],
                            err: ClError, attempt: int) -> None:
        """Preserve the partial timeline of a failed attempt.

        The runtime attaches its ProfilingEvents to the raised
        :class:`ClError`; they are re-recorded with a ``failed_`` kind
        prefix and ``attemptN:``-prefixed names so the discarded work is
        auditable without double-counting — ``RunResult.kernel_time_ms``
        only sums kind ``"kernel"``, and name-prefix filters keep
        matching the real kernel names of the winning attempt only.
        """
        for e in getattr(err, "events", None) or []:
            recovery_events.append(ProfilingEvent(
                f"failed_{e.kind}", f"attempt{attempt}:{e.name}",
                e.duration_ms, e.timing, start_ms=e.start_ms))

    def _run(self, method: str, program, inputs, sizes, *a, **kw) -> RunResult:
        recovery_events: list[ProfilingEvent] = []
        recovering_from: PolicyOutcome | None = None
        last_error: ClError | None = None
        stages = self._attempt_plan()
        o = _obs.get()
        for si, (stage, gpu, detail) in enumerate(stages):
            # only re-enter the degrade stage for the failure mode it
            # actually mitigates
            if stage == "degrade_launch" and not isinstance(
                    last_error, ClOutOfResources):
                continue
            for attempt in range(1, self.retry.max_attempts + 1):
                span = (o.tracer.start("resilient.attempt", "resilient",
                                       stage=stage, attempt=attempt,
                                       device=gpu.device.name, method=method)
                        if o is not None else None)
                try:
                    res: RunResult = getattr(gpu, method)(
                        program, inputs, sizes, *a, **kw)
                except ClError as err:
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
                    last_error = err
                    self._keep_failed_events(recovery_events, err, attempt)
                    retryable = isinstance(err, self.retry.retry_on)
                    # a buffer over the device's per-allocation cap can
                    # still fit a larger fallback device / the host
                    escalatable = retryable or "max_alloc_bytes" in err.context
                    if not escalatable:
                        # programming errors (invalid args/sizes) are not
                        # recoverable — surface them immediately
                        self._note(PolicyOutcome(
                            method, gpu.device.name, attempt,
                            err.status_name, "raise", err.injected,
                            detail=str(err)))
                        raise
                    if retryable and attempt < self.retry.max_attempts:
                        delay = self.retry.delay_ms(attempt - 1)
                        if o is not None:
                            start = o.tracer.event(
                                f"retry:{err.status_name}", "backoff", delay,
                                error=err.status_name, attempt=attempt,
                                injected=err.injected).start_ms
                        else:
                            start = gpu.clock.now_ms
                            gpu.clock.advance(delay)
                        recovery_events.append(ProfilingEvent(
                            "backoff", f"retry:{err.status_name}", delay,
                            start_ms=start))
                        recovering_from = PolicyOutcome(
                            method, gpu.device.name, attempt,
                            err.status_name, "retry", err.injected,
                            backoff_ms=delay, detail=str(err))
                        self._note(recovering_from)
                        continue
                    # retry budget spent on this stage: escalate
                    next_stage = next(
                        (s for s in stages[si + 1:]
                         if s[0] != "degrade_launch"
                         or isinstance(err, ClOutOfResources)), None)
                    if next_stage is None:
                        self._note(PolicyOutcome(
                            method, gpu.device.name, attempt,
                            err.status_name, "raise", err.injected,
                            detail="degradation ladder exhausted"))
                        raise
                    recovering_from = PolicyOutcome(
                        method, gpu.device.name, attempt, err.status_name,
                        next_stage[0], err.injected,
                        detail=f"escalating to {next_stage[2]}")
                    self._note(recovering_from)
                    break
                else:
                    if span is not None:
                        span.attrs["outcome"] = "ok"
                        o.tracer.end(span)
                    if stage == "host_fallback":
                        self._relabel_host_events(res)
                    if recovering_from is not None:
                        self._note(PolicyOutcome(
                            method, gpu.device.name, attempt, "", "recovered",
                            detail=f"after {recovering_from.error} via "
                                   f"{recovering_from.action}"))
                    res.events[:0] = recovery_events
                    return res
        raise last_error if last_error is not None else ClError(
            f"no execution stage available for {method}")

    @staticmethod
    def _relabel_host_events(res: RunResult) -> None:
        """Host-fallback runs charge no GPU kernel or PCIe time."""
        for e in res.events:
            if e.kind in ("kernel", "h2d", "d2h"):
                e.kind = f"host_{e.kind}"
                e.duration_ms = 0.0
