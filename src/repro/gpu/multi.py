"""Multi-device execution: 1-D domain decomposition in one host process.

:class:`MultiGPU` shards the acoustics volume along the Z axis of the
flattened FDTD grid (``idx = z*Nx*Ny + y*Nx + x``) across a pool of
virtual devices and presents the ``stepping`` / ``execute_many``
interface of a single :class:`~.runtime.VirtualGPU`, so
:class:`repro.acoustics.sim.RoomSimulation` and the benchmark harness
drive it alike.  Each shard owns a contiguous slab of ``z`` planes
(``plane = Nx*Ny`` elements each); the paper's R9 295X2 is two such
devices driven by one host process, and so is a pool here: its open plan
(:class:`~.parallel.PoolPlan`) steps the caller's arrays through the one
compiled step a single device runs, one Z-block range per shard — on a
thread per shard with ``parallel=True`` — and is bit-identical to one
device by construction.

**The modelled device of each shard.**  Every shard still models the
device its slab would live on: a shard plan (a
:class:`~.runtime.ResidentPlan`, under a
:class:`~.resilient.ResilientGPU` ladder when ``resilient``) opened on
the shard-local plan (:func:`shard_plan`) with the slab's sizes in the
dual-halo layout ``[own N_s][halo_hi r*plane][halo_lo r*plane]`` (``r`` =
:data:`STENCIL_RADIUS`) and its boundary points re-based to the slab
— the sizes and the gather index its launches are priced from.  Its
other arrays (:data:`LOCAL_PARAMS`) are zeros nothing reads.  Each step
every shard plan models its launches (``run_fused(compute=False)``),
consulting its device's fault plan at every launch site, before any
range stores anything.

**Halo exchange** (:class:`~repro.lift.codegen.plan.HaloExchange` ops)
is priced, not performed: after each step, the freshly written level's
edge planes between neighbouring shards, by
:func:`~.costmodel.halo_exchange_time_ms` — peer-to-peer over a
same-board interconnect (``resolve_device("RadeonR9:2")``), staged
through host PCIe otherwise.

**Timing semantics** (:class:`MultiRunResult`): shards run concurrently,
so the merged ``kernel_time_ms`` is the *maximum* over shards (the
parallel critical path), while halo and PCIe transfer times *sum* (the
exchange phase and the single host link serialise).

**Failure semantics**: faults and recovery act per shard step; with
``resilient=True`` under a ladder per shard
(:func:`~.resilient.shard_retry_policy`) that retries everything
transient *except* device loss.  A lost device's resident halo state is
gone, so ``CL_DEVICE_LOST`` escalates as :class:`ShardLost`, and the
simulation layer re-shards over the survivors and replays from the last
checkpoint — exact because the decomposition is exact.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..obs.tracer import ModelClock
from ..lift.codegen.plan import (CopyIn, CopyOut, HaloExchange, HostPlan,
                                 HostProgram, Launch)
from .costmodel import halo_exchange_time_ms, peer_connected
from .device import DeviceSpec, resolve_device
from .errors import ClDeviceLost, ClInvalidValue
from .faults import FaultPlan
from .resilient import (PolicyOutcome, ResilientGPU, RetryPolicy,
                        shard_retry_policy)
from .runtime import ProfilingEvent, VirtualGPU

#: halo width in z planes: the 7-point SLF stencil reads one neighbouring
#: plane in each direction
STENCIL_RADIUS = 1

# How a shard plan's inputs partition, by host-parameter name of the
# acoustics host programs (repro.acoustics.lift_programs); every other
# input (coefficient tables, scalars) is broadcast whole.
#: the plane stride ``Nx*Ny``
PLANE_PARAM = "NxNy_h"
#: the flat boundary-index array: split by owning slab and re-based
BOUNDARY_PARAM = "boundaries"
#: the boundary-point count, as a size and as a scalar input
K_SIZE = "K"
#: arrays of the local layout a shard plan holds as zeros: grid-shaped
#: (the first is the level whose halo planes are exchanged),
#: per-boundary-point and ``[branches, K]`` branch state
FIELD_PARAMS = ("prev1_h", "prev2_h", "neighbors")
LOCAL_PARAMS = (*FIELD_PARAMS, "materialIdx", "g1_h", "v2_h", "v1_h")


class ShardLost(ClDeviceLost):
    """``CL_DEVICE_LOST`` escalated out of one shard of a decomposed run.

    Raised instead of retrying in place: the dead die's resident halo
    state is unrecoverable, so the correct response is global — re-shard
    across the surviving devices and replay from the last checkpoint
    (``RoomSimulation.run`` does exactly that).  ``context`` carries the
    shard index and device name.
    """

    @property
    def shard(self) -> int | None:
        return self.context.get("shard")


@dataclass(frozen=True)
class Shard:
    """One slab of the Z decomposition: planes ``[z0, z1)`` of the grid."""

    index: int
    device: DeviceSpec
    z0: int                  # first owned z plane (inclusive)
    z1: int                  # past-the-end owned z plane
    plane: int               # Nx*Ny elements per plane
    radius: int              # halo width in planes

    @property
    def lo(self) -> int:
        """Global flat index of the first owned element."""
        return self.z0 * self.plane

    @property
    def hi(self) -> int:
        """Global flat index one past the last owned element."""
        return self.z1 * self.plane

    @property
    def n_local(self) -> int:
        return (self.z1 - self.z0) * self.plane

    @property
    def np_local(self) -> int:
        """Local padded size: own slab plus both halo regions."""
        return self.n_local + 2 * self.radius * self.plane


def shard_plan(plan: HostPlan, shard_index: int,
               local_sizes: dict) -> HostPlan:
    """The per-shard plan: same ops, placed on ``shard_index``, minus
    work that is empty under the shard's sizes (a shard owning no
    boundary points drops the boundary launch and its zero-element
    buffers — allocating a zero-size buffer is an OpenCL error)."""
    empty = {d.name for d in plan.buffers
             if int(d.count.evaluate(local_sizes)) <= 0}
    ops: list = []
    for op in plan.ops:
        if isinstance(op, (CopyIn, CopyOut)) and op.buffer in empty:
            continue
        if isinstance(op, Launch):
            if (op.global_size is not None
                    and int(op.global_size.evaluate(local_sizes)) <= 0):
                continue
            bad = [b.param_name for b in op.args
                   if b.kind == "buffer" and b.source in empty]
            if bad:
                raise ClInvalidValue(
                    f"launch {op.kernel.name!r} has nonzero work but "
                    f"references empty buffer(s) via {bad} on shard "
                    f"{shard_index}; the decomposition cannot shard "
                    f"this plan", kernel=op.kernel.name, args=bad)
        ops.append(op)
    return HostPlan(buffers=[d for d in plan.buffers if d.name not in empty],
                    ops=ops, result_buffer=plan.result_buffer,
                    device=shard_index)


def decompose(nz: int, plane: int,
              devices: tuple[DeviceSpec, ...]) -> list[Shard]:
    """Balanced Z-slab split of ``nz`` planes across ``devices``."""
    n = len(devices)
    if n > nz:
        raise ClInvalidValue(
            f"cannot decompose {nz} z planes across {n} devices: each "
            f"shard needs at least one plane", planes=nz, devices=n)
    base, rem = divmod(nz, n)
    shards: list[Shard] = []
    z0 = 0
    for i, dev in enumerate(devices):
        planes = base + (1 if i < rem else 0)
        shards.append(Shard(i, dev, z0, z0 + planes, plane, STENCIL_RADIUS))
        z0 += planes
    return shards


@dataclass
class MultiRunResult:
    """Merged outcome of a decomposed run.

    Mirrors :class:`~.runtime.RunResult` (``result``, ``buffers``, the
    ``*_time_ms`` accessors) with multi-device semantics: shards execute
    concurrently, so :meth:`kernel_time_ms` is the **maximum** over the
    per-shard totals (the parallel critical path), while
    :meth:`halo_time_ms` and :meth:`transfer_time_ms` **sum** — the
    exchange phase and the single host PCIe link serialise.
    """

    result: np.ndarray | None
    buffers: dict[str, np.ndarray]
    shard_events: list[list[ProfilingEvent]]
    halo_events: list[ProfilingEvent]
    halo_bytes: int
    devices: tuple[str, ...]
    #: the pool's modelled overlap report
    #: (:attr:`~.parallel.PoolPlan.overlap`),
    #: with the run's ``steps`` and its ``measured`` wall seconds
    overlap: dict | None = None
    #: receiver traces by name: the newest level at the receiver's
    #: global flat index after every step (``execute_many(receivers=)``)
    receivers: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def events(self) -> list[ProfilingEvent]:
        out = [e for ev in self.shard_events for e in ev]
        out.extend(self.halo_events)
        return out

    def per_shard_kernel_time_ms(
            self, name_prefix: str | None = None) -> list[float]:
        """Per-shard successful-kernel time, indexed by shard."""
        return [sum(e.duration_ms for e in ev if e.kind == "kernel"
                    and (name_prefix is None
                         or e.name.startswith(name_prefix)))
                for ev in self.shard_events]

    def kernel_time_ms(self, name_prefix: str | None = None) -> float:
        """Modelled kernel time of the run: slowest shard's total."""
        return max(self.per_shard_kernel_time_ms(name_prefix), default=0.0)

    def halo_time_ms(self) -> float:
        """Total modelled inter-device halo-exchange time (summed: the
        exchange phase is a synchronisation point between steps)."""
        return sum(e.duration_ms for e in self.halo_events)

    def transfer_time_ms(self) -> float:
        return sum(e.duration_ms for ev in self.shard_events for e in ev
                   if e.kind in ("h2d", "d2h"))


class MultiGPU:
    """A pool of virtual devices executing one host program by Z-slab
    domain decomposition, with the interface of :class:`VirtualGPU`.

    ``devices`` accepts anything :func:`~.device.resolve_device` does
    (``"RadeonR9:2"``, a list of specs, ...).  ``resilient=True`` models
    each shard's step under a :class:`~.resilient.ResilientGPU` ladder
    (see the module docstring).  A ``faults`` plan is attached to the
    first device only, so injected failures have a well-defined victim.
    ``parallel=True`` runs each shard's slab of the step on a thread of
    its own.
    """

    def __init__(self, devices, *, faults: FaultPlan | None = None,
                 resilient: bool = False, retry: RetryPolicy | None = None,
                 parallel: bool = False):
        self.devices = resolve_device(devices)
        self.faults = faults
        self.resilient = resilient
        self.retry = retry
        self.parallel = parallel
        #: each shard's executor (under a ladder when resilient)
        self._gpus: list = [VirtualGPU(dev, faults=faults if i == 0 else None)
                            for i, dev in enumerate(self.devices)]
        if resilient:
            self._gpus = [ResilientGPU(g, retry=shard_retry_policy(retry),
                                       host_fallback=False)
                          for g in self._gpus]
        #: fallback clock for halo events when no obs session is active
        self.clock = ModelClock()
        #: policy entries carried over from a pre-reshard pool (the old
        #: pool's executors are discarded by :meth:`without_device`, but
        #: their recovery history must survive for the policy log)
        self.inherited_log: list[PolicyOutcome] = []

    @property
    def device(self) -> DeviceSpec:
        """First shard's device (interface parity with VirtualGPU)."""
        return self.devices[0]

    def without_device(self, index: int) -> "MultiGPU":
        """A new pool with shard ``index``'s device removed — the
        re-shard step of device-loss recovery.  The same fault plan
        instance carries over, so already-fired one-shot faults do not
        re-fire during the replay."""
        remaining = tuple(d for i, d in enumerate(self.devices) if i != index)
        if not remaining:
            raise ClInvalidValue(
                "cannot re-shard: no devices left", lost_shard=index)
        pool = MultiGPU(remaining, faults=self.faults,
                        resilient=self.resilient, retry=self.retry,
                        parallel=self.parallel)
        pool.inherited_log = self.policy_logs() + [PolicyOutcome(
            method="step", device=self.devices[index].name, attempt=1,
            error="CL_DEVICE_LOST", action="reshard",
            detail=f"shard {index} lost; re-sharded across "
                   f"{len(remaining)} device(s)")]
        return pool

    def compile_step(self, plan: HostPlan, rotations):
        """The step the pool runs (:meth:`VirtualGPU.compile_step`): a
        plan it refuses, the pool refuses."""
        return self._gpus[0].compile_step(plan, rotations)

    def serial_reason(self, step) -> str | None:
        """Why a :class:`~.parallel.PoolPlan` runs ``step`` whole on the calling
        thread instead of one slab per shard thread (``None``: it
        threads): ``parallel=False``, one shard (``single_shard``), or a
        step off the cc tier (``step_tier``: the numpy tier steps whole
        arrays only, and the numba and python tiers are not called from
        several threads at once)."""
        if not self.parallel:
            return "parallel=False"
        if len(self.devices) < 2:
            return "single_shard"
        return None if step.tier == "cc" else "step_tier"

    def policy_logs(self) -> list:
        """Concatenated recovery-policy logs: entries inherited across
        re-shards, then the live per-shard logs (resilient mode)."""
        out = list(self.inherited_log)
        for gpu in self._gpus:
            out.extend(getattr(gpu, "log", []))
        return out

    # -- decomposition ------------------------------------------------------------------
    def _shards(self, inputs: dict, sizes: dict) -> list[Shard]:
        plane = int(inputs.get(PLANE_PARAM, 0))
        n_total = int(sizes["N"])
        if plane <= 0 or n_total % plane:
            raise ClInvalidValue(
                f"cannot decompose: plane size {PLANE_PARAM!r}={plane} "
                f"does not divide N={n_total}", plane=plane, N=n_total)
        return decompose(n_total // plane, plane, self.devices)

    @staticmethod
    def _local_inputs(shard: Shard, inputs: dict,
                      sizes: dict) -> tuple[dict, dict]:
        """Shard-local (inputs, sizes) of the slab's modelled device:
        its sizes, and its boundary points re-based to the slab."""
        li = dict(inputs)
        ls = dict(sizes, N=shard.n_local, NP=shard.np_local)
        if BOUNDARY_PARAM in inputs:
            bidx = np.asarray(inputs[BOUNDARY_PARAM]).reshape(-1)
            mask = (bidx >= shard.lo) & (bidx < shard.hi)
            li[BOUNDARY_PARAM] = (bidx[mask] - shard.lo).astype(bidx.dtype)
            k_local = int(mask.sum())
            for d in (ls, li):
                if K_SIZE in d:
                    d[K_SIZE] = k_local
        return li, ls

    # -- halo exchange ------------------------------------------------------------------
    def _halo_schedule(self, shards: list[Shard]) -> list[HaloExchange]:
        """One exchange per neighbouring pair and direction, on the
        freshly written level (the field after the rotation): the shard's
        edge planes into the neighbour's matching halo region."""
        name = FIELD_PARAMS[0]
        ops: list[HaloExchange] = []
        for a, b in zip(shards, shards[1:]):
            rp = a.radius * a.plane
            # a's top planes -> b's halo_lo (the tail of b's local array)
            ops.append(HaloExchange(a.index, b.index, name,
                                    a.n_local - rp, b.n_local + rp, rp))
            # b's bottom planes -> a's halo_hi
            ops.append(HaloExchange(b.index, a.index, name,
                                    0, a.n_local, rp))
        return ops

    def _record_halo(self, src: DeviceSpec, dst: DeviceSpec, nbytes: int,
                     name: str, events: list[ProfilingEvent],
                     step: int | None) -> None:
        ms = halo_exchange_time_ms(nbytes, src, dst)
        link = "p2p" if peer_connected(src, dst) else "staged"
        o = _obs.get()
        if o is None:
            start = self.clock.now_ms
            self.clock.advance(ms)
        else:
            attrs = dict(src=src.name, dst=dst.name, bytes=nbytes, link=link)
            if step is not None:
                attrs["step"] = step
            start = o.tracer.event(name, "halo", ms, **attrs).start_ms
            o.metrics.counter(
                "repro_gpu_halo_bytes_total",
                "Bytes exchanged between shard halos by link type",
                ("link",)).inc(float(nbytes), link=link)
            o.metrics.histogram(
                "repro_gpu_halo_time_ms",
                "Modelled per-exchange halo transfer time",
                ("link",)).observe(ms, link=link)
        events.append(ProfilingEvent("halo", name, ms, start_ms=start))

    @staticmethod
    @contextmanager
    def _shard_loss(shard: Shard):
        """Escalate a device lost inside ``shard``'s work as
        :class:`ShardLost` naming the shard (one already escalated
        passes through)."""
        try:
            yield
        except ShardLost:
            raise
        except ClDeviceLost as err:
            ctx = {k: v for k, v in err.context.items()
                   if k not in ("shard", "device", "injected")}
            raise ShardLost(
                f"shard {shard.index} ({shard.device.name}) lost: {err}",
                shard=shard.index, device=shard.device.name,
                injected=err.injected, **ctx) from err

    # -- resident iterative execution ---------------------------------------------------
    def stepping(self, plan: HostPlan, inputs: dict, sizes: dict[str, int],
                 rotations: list[tuple[str, ...]],
                 events: list[ProfilingEvent],
                 in_place: dict[str, np.ndarray] | None = None, *,
                 setup_step: int | None = None):
        """``plan`` opened on the pool to step
        (:class:`~.parallel.PoolPlan`), as
        :meth:`VirtualGPU.stepping` opens it on one device: over the
        ``in_place`` arrays, or over copies of ``inputs``; ``events``
        receives each step's critical path and halo events."""
        from .parallel import PoolPlan
        return PoolPlan(self, plan, inputs, sizes, rotations, events,
                        in_place, setup_step=setup_step)

    def execute_many(self, program: HostProgram, inputs: dict, sizes: dict,
                     steps: int,
                     rotations: list[tuple[str, ...]] | None = None,
                     receivers: dict[str, int] | None = None,
                     first_step: int = 0) -> MultiRunResult:
        """Iterative resident execution across the pool, on copies of
        ``inputs``: :meth:`stepping`, then ``steps`` steps numbered from
        ``first_step`` (for the fault plan, which the shard plans open
        at), so ``rotations`` must hold the leapfrog cycle, and a plan
        the step refuses raises here.  ``receivers`` optionally maps
        names to global flat indices sampled from the freshly rotated
        field each step; the traces come back in ``result.receivers``.
        A lost device surfaces as :class:`ShardLost`: recovery is the
        caller's re-shard-and-replay."""
        from .parallel import PoolPlan
        o = _obs.get()
        cm = (o.tracer.span("gpu.multi.execute_many", "gpu",
                            shards=len(self.devices), steps=steps)
              if o is not None else nullcontext())
        events: list[ProfilingEvent] = []
        traces: dict[str, list] = {name: [] for name in receivers or {}}
        with cm:
            t0 = _time.perf_counter()
            plan = PoolPlan(self, program.plan, inputs, sizes, rotations,
                            events, None, setup_step=first_step,
                            keep_shard_events=True)
            t_loop = _time.perf_counter()
            try:
                for step in range(first_step, first_step + steps):
                    plan.run_fused(step)
                    plan.rotate()
                    newest = plan.buffer_for(plan.newest)
                    for name, idx in (receivers or {}).items():
                        traces[name].append(float(newest[idx]))
            finally:
                plan.close()
            loop_wall_s = _time.perf_counter() - t_loop
            res = plan.finish()
        res.receivers = {n: np.asarray(t) for n, t in traces.items()}
        res.overlap = {**res.overlap, "steps": steps, "measured": {
            "wall_total_s": _time.perf_counter() - t0,
            "loop_wall_s": loop_wall_s}}
        return res
