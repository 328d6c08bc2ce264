"""Multi-device execution: 1-D domain decomposition with halo exchange.

:class:`MultiGPU` shards the acoustics volume along the Z axis of the
flattened FDTD grid (``idx = z*Nx*Ny + y*Nx + x``) across a pool of
virtual devices and presents the ``execute_many`` interface of a single
:class:`~.runtime.VirtualGPU`, so
:class:`repro.acoustics.sim.RoomSimulation` and the benchmark harness
drive it alike.

**Shard layout.** Each shard owns a contiguous slab of ``z`` planes
(``plane = Nx*Ny`` elements each) and stores its state arrays as::

    [ own N_s elements ][ halo_hi r*plane ][ halo_lo r*plane ]

with ``r`` = :data:`STENCIL_RADIUS` (the 7-point SLF stencil reads one
plane in each direction).  This ordering is what makes the decomposition
*bit-identical by construction*: the generated kernels index neighbours
as ``i +- 1/Nx/NxNy`` over ``i in [0, N)`` with NumPy wraparound for
negative indices, so on a shard run with local sizes ``N = N_s`` and
``NP = N_s + 2*r*plane``

* a positive overflow (``i + NxNy`` past the top plane) lands in
  ``halo_hi`` at exactly the offset of the neighbour's value, and
* a negative wrap (``i - NxNy`` below plane 0) wraps to the *end* of the
  array — ``halo_lo`` — again at the right offset,

precisely as the single-device layout wraps into its zero guard plane at
the domain faces.  The first shard's ``halo_lo`` and the last shard's
``halo_hi`` are zeros, reproducing the guard plane; interior halos carry
the neighbouring shard's boundary planes.  Kernels run unmodified.

**Boundary work** (FI-MM / FD-MM) is partitioned by owner: the flat
boundary-index array is split by which slab each index falls in,
re-based to shard-local coordinates, and the per-boundary-point arrays
(material ids, ODE branch states of shape ``[branches, K]``) follow the
same mask.  A shard with no boundary points drops the boundary launch
and its empty buffers from its plan instead of allocating zero-size
buffers.

**Halo exchange** (:class:`~repro.lift.codegen.plan.HaloExchange` ops)
moves the freshly written level's edge planes — ``prev1_h`` after the
rotation — between neighbouring shards after each step; only that level
needs exchanging, since the next step gathers neighbours from it while
all other reads are at the work item's own index.  Transfers are priced
by
:func:`~.costmodel.halo_exchange_time_ms`: peer-to-peer over a
same-board interconnect (the R9 295X2's on-board bridge, see
``resolve_device("RadeonR9:2")``), staged through host PCIe otherwise.

**Timing semantics** (:class:`MultiRunResult`): shards run concurrently,
so the merged ``kernel_time_ms`` is the *maximum* over shards (the
parallel critical path), while halo and PCIe transfer times *sum* (the
BSP exchange phase and the single host link serialise).

**Two executors, one step.** :meth:`MultiGPU.execute_many` steps every
shard as one ``resident`` device steps — one compiled step over two time
levels (:meth:`~.runtime.ResidentPlan.stepping`) — in this process, or
in a worker process per shard (:func:`repro.gpu.parallel.execute_parallel`,
``parallel=True``) that overlaps the halo exchange with interior
compute.  Both are bit-identical to one device.

**Failure semantics**: faults and recovery act per shard step, in the
in-process loop; with ``resilient=True`` under a ladder per shard
(:func:`~.resilient.shard_retry_policy`) that retries everything
transient *except* device loss.  A lost device's resident halo state is
gone, so ``CL_DEVICE_LOST`` escalates as :class:`ShardLost`, and the
simulation layer re-shards over the survivors and replays from the last
checkpoint — exact because the decomposition is exact.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

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
from .runtime import ProfilingEvent, ResidentPlan, VirtualGPU

#: halo width in z planes: the 7-point SLF stencil reads one neighbouring
#: plane in each direction
STENCIL_RADIUS = 1

# How inputs partition, by host-parameter name of the acoustics host
# programs (repro.acoustics.lift_programs); every other input
# (coefficient tables, scalars) is broadcast whole.
#: the plane stride ``Nx*Ny``
PLANE_PARAM = "NxNy_h"
#: the flat boundary-index array: split by owning slab and re-based
BOUNDARY_PARAM = "boundaries"
#: grid-shaped arrays: sliced into the dual-halo local layout; the first
#: is the field whose halo planes the parallel executor exchanges
FIELD_PARAMS = ("prev1_h", "prev2_h", "neighbors")
#: per-boundary-point arrays: follow the boundary mask 1:1
OWNER_PARAMS = ("materialIdx",)
#: ODE branch states of shape ``[branches, K]``: masked per column
BRANCH_PARAMS = ("g1_h", "v2_h", "v1_h")
#: the boundary-point count, as a size and as a scalar input
K_SIZE = "K"


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

    def shard_field(self, arr) -> np.ndarray:
        """Extract this shard's local view of a global field array.

        Layout ``[own][halo_hi][halo_lo]`` (see module docstring).  The
        global array may carry the single-device guard plane
        (``N + plane`` elements); the last shard's ``halo_hi`` then *is*
        that guard plane — zeros, exactly what the single-device wrap
        reads at the top face.  Missing data (first shard's ``halo_lo``,
        arrays without a guard plane) is zero-filled for the same reason.
        """
        a = np.asarray(arr).reshape(-1)
        rp = self.radius * self.plane
        own = a[self.lo:self.hi]
        if a.size >= self.hi + rp:
            hi = a[self.hi:self.hi + rp]
        else:
            hi = np.zeros(rp, dtype=a.dtype)
            avail = a.size - self.hi
            if avail > 0:
                hi[:avail] = a[self.hi:]
        if self.lo >= rp:
            lo = a[self.lo - rp:self.lo]
        else:
            lo = np.zeros(rp, dtype=a.dtype)
        return np.concatenate([own, hi, lo])


def shard_program(program: HostProgram, shard_index: int,
                  local_sizes: dict) -> HostProgram:
    """The per-shard plan: same ops, placed on ``shard_index``, minus
    work that is empty under the shard's sizes (a shard owning no
    boundary points drops the boundary launch and its zero-element
    buffers — allocating a zero-size buffer is an OpenCL error)."""
    plan = program.plan
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
    new_plan = HostPlan(
        buffers=[d for d in plan.buffers if d.name not in empty],
        ops=ops, result_buffer=plan.result_buffer, device=shard_index)
    return replace(program, plan=new_plan)


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
    :meth:`halo_time_ms` and :meth:`transfer_time_ms` **sum** — the BSP
    exchange phase and the single host PCIe link serialise.
    """

    result: np.ndarray | None
    buffers: dict[str, np.ndarray]
    shard_events: list[list[ProfilingEvent]]
    halo_events: list[ProfilingEvent]
    halo_bytes: int
    devices: tuple[str, ...]
    #: overlap-schedule report when the run used the multi-process
    #: executor (:func:`~.parallel.execute_parallel`): per-shard modes,
    #: modelled ``max(interior, halo) + boundary`` timing, measured
    #: stall/exchange wallclock; ``None`` for the in-process loop
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
    (``"RadeonR9:2"``, a list of specs, ...).  Inputs partition by
    host-parameter name (:data:`FIELD_PARAMS`, :data:`BOUNDARY_PARAM`,
    :data:`OWNER_PARAMS`, :data:`BRANCH_PARAMS`); everything else is
    broadcast whole.

    ``resilient=True`` steps each shard under a
    :class:`~.resilient.ResilientGPU` ladder (see the module docstring).
    A ``faults`` plan is attached to the first device only, so injected
    failures have a well-defined victim.  ``parallel=True`` lets
    :meth:`execute_many` run each shard in a worker process of its own.
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
        #: test knob: {shard_index: step} — that shard's worker process
        #: SIGKILLs itself at that simulation step, exercising dead-process
        #: ShardLost recovery.  Not carried across :meth:`without_device`.
        self._test_kill: dict[int, int] | None = None

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

    def _parallel_eligible(self) -> str | None:
        """Why :meth:`execute_many` cannot run the process-per-shard
        executor (None when it can)."""
        if not self.parallel:
            return "parallel=False"
        if len(self.devices) < 2:
            return "single_shard"
        if self.faults is not None or self.resilient:
            return "faults_or_resilient"    # their ladders are in-process
        return None

    def compile_step(self, plan: HostPlan, rotations):
        """The step every shard runs (:meth:`VirtualGPU.compile_step`):
        a plan it refuses, the pool refuses."""
        return self._gpus[0].compile_step(plan, rotations)

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

    def _local_inputs(self, shard: Shard, inputs: dict, sizes: dict
                      ) -> tuple[dict, dict, np.ndarray | None]:
        """Shard-local (inputs, sizes, ownership mask) for one slab."""
        li = dict(inputs)
        ls = dict(sizes)
        ls["N"] = shard.n_local
        ls["NP"] = shard.np_local
        for p in FIELD_PARAMS:
            if p in inputs:
                li[p] = shard.shard_field(inputs[p])
        mask: np.ndarray | None = None
        if BOUNDARY_PARAM in inputs:
            bidx = np.asarray(inputs[BOUNDARY_PARAM]).reshape(-1)
            mask = (bidx >= shard.lo) & (bidx < shard.hi)
            li[BOUNDARY_PARAM] = (bidx[mask] - shard.lo).astype(bidx.dtype)
            k_local = int(mask.sum())
            if K_SIZE in ls:
                ls[K_SIZE] = k_local
            if K_SIZE in inputs:
                li[K_SIZE] = k_local
            for p in OWNER_PARAMS:
                if p in inputs:
                    li[p] = np.asarray(inputs[p]).reshape(-1)[mask]
            k_total = bidx.size
            if k_total:
                for p in BRANCH_PARAMS:
                    if p in inputs:
                        a = np.asarray(inputs[p]).reshape(-1, k_total)
                        li[p] = np.ascontiguousarray(a[:, mask]).reshape(-1)
        return li, ls, mask

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

    def _apply_halo(self, op: HaloExchange, shards: list[Shard],
                    states: list[ResidentPlan],
                    events: list[ProfilingEvent], step: int) -> int:
        """Interpret one HaloExchange op between resident plans."""
        src_arr = states[op.src_device].buffer_for(op.buffer)
        dst_arr = states[op.dst_device].buffer_for(op.buffer)
        dst_arr[op.dst_start:op.dst_start + op.count] = \
            src_arr[op.src_start:op.src_start + op.count]
        nbytes = op.count * src_arr.itemsize
        self._record_halo(shards[op.src_device].device,
                          shards[op.dst_device].device, nbytes,
                          f"halo:{op.src_device}->{op.dst_device}",
                          events, step)
        return nbytes

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
    def execute_many(self, program: HostProgram, inputs: dict, sizes: dict,
                     steps: int,
                     rotations: list[tuple[str, ...]] | None = None,
                     receivers: dict[str, int] | None = None,
                     first_step: int = 0) -> MultiRunResult:
        """Iterative resident execution across the pool: every shard
        steps through one compiled step over two time levels
        (:meth:`ResidentPlan.stepping`), so ``rotations`` must hold the
        leapfrog cycle, and a plan the step refuses raises here.
        ``receivers`` optionally maps names to *global* flat indices:
        the owning shard samples the freshly rotated field there each
        step, and the traces come back in ``result.receivers``.

        With ``parallel=True`` and :meth:`_parallel_eligible` passing,
        each shard runs in a worker process of its own with halo
        exchange overlapping interior compute
        (:func:`~.parallel.execute_parallel`).

        Otherwise the shards step here, in BSP order: upload each
        shard's state once, then per step every shard's step (under its
        ladder when resilient) and rotation, and the halo-exchange phase
        into the freshly written level.  Steps are numbered from
        ``first_step``, for the fault plan (the plans open at it).  A
        lost device surfaces as :class:`ShardLost`: recovery is the
        caller's re-shard-and-replay.
        """
        if self._parallel_eligible() is None and steps > 0:
            from .parallel import execute_parallel
            # what a worker would refuse is refused at the call
            self.compile_step(program.plan, rotations)
            return execute_parallel(self, program, inputs, sizes, steps,
                                    rotations, receivers or {}, first_step)
        shards = self._shards(inputs, sizes)
        o = _obs.get()
        cm = (o.tracer.span("gpu.multi.execute_many", "gpu",
                            shards=len(shards), steps=steps)
              if o is not None else nullcontext())
        states: list = []
        masks: list[np.ndarray | None] = []
        halo_events: list[ProfilingEvent] = []
        halo_bytes = 0
        # receiver name -> (owning shard, local index, trace)
        traces = {name: next((sh.index, idx - sh.lo, []) for sh in shards
                             if sh.lo <= idx < sh.hi)
                  for name, idx in (receivers or {}).items()}
        names: set[str] = set()     # the shards' transferred host params
        with cm:
            for shard, gpu in zip(shards, self._gpus):
                li, ls, mask = self._local_inputs(shard, inputs, sizes)
                plan = shard_program(program, shard.index, ls).plan
                names |= set(plan.host_buffers())
                with self._shard_loss(shard):
                    states.append(gpu.stepping(
                        plan, li, ls, rotations, [], setup_step=first_step))
                masks.append(mask)
            schedule = (self._halo_schedule(shards)
                        if len(shards) > 1 else [])
            for step in range(first_step, first_step + steps):
                for shard, st in zip(shards, states):
                    with self._shard_loss(shard):
                        st.run_fused(step, shard=shard.index)
                    st.rotate()
                for op in schedule:
                    halo_bytes += self._apply_halo(op, shards, states,
                                                   halo_events, step)
                for i, local, trace in traces.values():
                    trace.append(
                        float(states[i].buffer_for(FIELD_PARAMS[0])[local]))
            results = [st.finish() for st in states]
        merged = self._merge_many(shards, masks, names, results, inputs,
                                  halo_events, halo_bytes)
        merged.receivers = {n: np.asarray(t) for n, (*_, t) in traces.items()}
        return merged

    def _merge_many(self, shards, masks, names, results, inputs,
                    halo_events, halo_bytes) -> MultiRunResult:
        """Merge per-shard resident results into the pool's: the
        shards' owned slabs, concatenated; ``names`` is the union of the
        shards' rotation-binding names (host params)."""
        skip = {BOUNDARY_PARAM, K_SIZE, *OWNER_PARAMS}
        k_total = (np.asarray(inputs[BOUNDARY_PARAM]).size
                   if BOUNDARY_PARAM in inputs else 0)
        buffers: dict[str, np.ndarray] = {}
        for name in sorted(names):
            if name in skip:
                continue   # shard-local index/ownership data
            per = [r.buffers.get(f"final:{name}") for r in results]
            if name in BRANCH_PARAMS:
                if not k_total:
                    continue       # no boundary points, no branch state
                # [branches, K]: each shard's owned columns from its
                # result, the rest from the input
                merged = np.array(np.asarray(inputs[name]).reshape(-1))
                cols = merged.reshape(-1, k_total)
                for mask, p in zip(masks, per):
                    if mask is not None and p is not None and mask.any():
                        cols[:, mask] = np.asarray(p).reshape(
                            cols.shape[0], -1)
                buffers[f"final:{name}"] = merged
            elif name in FIELD_PARAMS:
                buffers[f"final:{name}"] = np.concatenate(
                    [np.asarray(p).reshape(-1)[:sh.n_local]
                     for sh, p in zip(shards, per) if p is not None])
            else:
                # broadcast data (coefficient tables): identical per shard
                shared = next((p for p in per if p is not None), None)
                if shared is not None:
                    buffers[f"final:{name}"] = shared
        return MultiRunResult(
            result=np.concatenate(
                [np.asarray(r.result).reshape(-1)[:sh.n_local]
                 for sh, r in zip(shards, results)]),
            buffers=buffers, shard_events=[r.events for r in results],
            halo_events=halo_events, halo_bytes=halo_bytes,
            devices=tuple(d.name for d in self.devices))
