"""Core modelled-timing harness shared by all table/figure regenerators.

``modelled_time(kind, precision, impl, device, bundle)`` produces the
virtual-GPU kernel time for one cell of the paper's tables:

* resources come from :func:`repro.lift.analysis.analyse_kernel` applied to
  the LIFT program of the kernel (both implementations run the same
  algorithm; they differ in the code-generation traits — the hand-written
  baseline additionally computes the box ``nbr`` on the fly instead of
  loading it (paper Listing 1 vs the §II-B lookup), and keeps coefficient
  tables in constant memory (§VII-B1));
* the gather cost uses the room's actual boundary-index array;
* workgroup sizes are autotuned, as in the paper's methodology.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import obs as _obs
from ..acoustics.lift_programs import (fd_mm_boundary, fi_fused_flat,
                                       fi_mm_boundary, volume_kernel)
from ..lift.analysis import Resources, analyse_kernel
from ..gpu.autotune import autotune_workgroup
from ..gpu.costmodel import (HANDWRITTEN_TRAITS, ImplTraits, KernelTiming,
                             LIFT_TRAITS)
from ..gpu.device import DeviceSpec, resolve_device
from .rooms import RoomBundle

KERNEL_KINDS = ("fi_fused", "volume", "fi_mm", "fd_mm")
IMPLS = ("OpenCL", "LIFT")
PRECISIONS = ("single", "double")


@lru_cache(maxsize=None)
def kernel_resources(kind: str, precision: str,
                     num_branches: int = 3) -> Resources:
    """Per-work-item resources of one kernel family (cached)."""
    if kind == "fi_fused":
        return analyse_kernel(fi_fused_flat(precision).kernel)
    if kind == "volume":
        return analyse_kernel(volume_kernel(precision).kernel)
    if kind == "fi_mm":
        return analyse_kernel(fi_mm_boundary(precision).kernel)
    if kind == "fd_mm":
        return analyse_kernel(fd_mm_boundary(precision, num_branches).kernel)
    raise ValueError(f"unknown kernel kind {kind!r}")


def _naive_fi_resources(res: Resources) -> Resources:
    """The naive FI benchmark computes the box ``nbr`` on the fly.

    Both the hand-written kernel (paper Listing 1 lines 3–6) and the LIFT
    version of [9] (pad-based constant boundary) handle the cuboid
    boundary without the ``nbrs`` lookup, so the Figure 4 model removes
    that traffic and charges the equivalent coordinate/boolean arithmetic
    for both implementations.
    """
    out = res.scaled(1.0)
    for key in [k for k in out.loads_detail if k[0] == "nbrs"]:
        arr, cls, w = key
        c = out.loads_detail.pop(key)
        out.loads_by_width[w] = out.loads_by_width.get(w, 0.0) - c
    out.int_ops += 12     # 6 comparisons-to-flags + adds
    out.comparisons += 6  # the outside test
    return out


def traits_for(impl: str) -> ImplTraits:
    if impl == "OpenCL":
        return HANDWRITTEN_TRAITS
    if impl == "LIFT":
        return LIFT_TRAITS
    raise ValueError(f"unknown implementation {impl!r}")


def modelled_time(kind: str, precision: str, impl: str,
                  device: DeviceSpec | str, bundle: RoomBundle,
                  num_branches: int = 3) -> KernelTiming:
    """Modelled kernel time [ms] for one (kernel, precision, impl, room)."""
    device = resolve_device(device)[0]
    res = kernel_resources(kind, precision, num_branches)
    if kind == "fi_fused":
        res = _naive_fi_resources(res)
    traits = traits_for(impl)
    if kind in ("fi_fused", "volume"):
        n_items = bundle.num_points
        gather = None
    else:
        n_items = bundle.num_boundary_points
        gather = bundle.boundary_indices
    timing = autotune_workgroup(res, n_items, device, precision, traits,
                                gather)
    o = _obs.get()
    if o is not None:
        o.tracer.event(
            f"bench:{kind}", "bench", timing.time_ms, device=device.name,
            precision=precision, impl=impl, room=bundle.name,
            n_items=n_items, occupancy=timing.occupancy,
            workgroup=timing.workgroup)
        o.metrics.counter(
            "repro_bench_cells_total", "Modelled benchmark cells evaluated",
            ("kind", "impl")).inc(kind=kind, impl=impl)
        o.metrics.histogram(
            "repro_bench_cell_time_ms", "Modelled kernel time per bench cell",
            ("device", "precision")).observe(
                timing.time_ms, device=device.name, precision=precision)
    return timing


def throughput_gelems(kind: str, timing: KernelTiming,
                      bundle: RoomBundle) -> float:
    """The paper's throughput metric: updates per second [Gelem/s]."""
    n = (bundle.num_points if kind in ("fi_fused", "volume")
         else bundle.num_boundary_points)
    return n / (timing.time_ms * 1e-3) / 1e9


# -- fault-tolerant sweeps -----------------------------------------------------------

@dataclass
class SweepCell:
    """Outcome of one sweep cell: a result, or a typed failure record."""

    key: tuple
    value: object | None
    error: str | None = None        # OpenCL status name / exception class
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def fault_tolerant_sweep(keys, compute, max_attempts: int = 3) -> list[SweepCell]:
    """Evaluate ``compute(key)`` for every sweep key, surviving failures.

    The paper's evaluation sweeps hundreds of (kernel, precision, device,
    room) cells; on real hardware a single lost device or failed
    allocation used to abort the whole campaign.  Here each cell retries
    transient :class:`~repro.gpu.errors.ClError` failures up to
    ``max_attempts`` times and a persistently failing cell is recorded as
    a failed :class:`SweepCell` (with its OpenCL status name) instead of
    propagating — the sweep always completes and reports which cells
    need re-running.  Non-``ClError`` exceptions still propagate: those
    are bugs, not operational faults.
    """
    from ..gpu.errors import ClError
    from contextlib import nullcontext
    keys = list(keys)
    out: list[SweepCell] = []
    o = _obs.get()
    with (o.tracer.span("bench.sweep", "bench", cells=len(keys))
          if o is not None else nullcontext()):
        for key in keys:
            cell = None
            for attempt in range(1, max_attempts + 1):
                try:
                    cell = SweepCell(key, compute(key), attempts=attempt)
                    break
                except ClError as err:
                    cell = SweepCell(key, None, error=err.status_name,
                                     attempts=attempt)
                    if not err.transient:
                        break
            if o is not None and not cell.ok:
                o.metrics.counter(
                    "repro_bench_cell_failures_total",
                    "Sweep cells that exhausted their retries",
                    ("error",)).inc(error=cell.error)
            out.append(cell)
    if o is not None:
        failed = sum(1 for c in out if not c.ok)
        g = o.metrics.gauge("repro_bench_sweep_cells",
                            "Cell counts of the last sweep", ("status",))
        g.set(len(out) - failed, status="ok")
        g.set(failed, status="failed")
    return out


# -- multi-device scaling sweeps ----------------------------------------------------

@dataclass(frozen=True)
class ScalingCell:
    """One point of a strong/weak-scaling sweep.

    ``kernel_time_ms`` is the parallel critical path (slowest shard);
    ``per_shard_kernel_ms`` exposes the per-shard breakdown and
    ``halo_time_ms`` the synchronising inter-device exchange phase — the
    two components the sweep exists to separate.
    """

    mode: str                           # "strong" | "weak"
    shards: int
    devices: tuple[str, ...]
    n_points: int                       # grid points of this cell's room
    steps: int
    kernel_time_ms: float
    per_shard_kernel_ms: tuple[float, ...]
    halo_time_ms: float
    halo_bytes: int
    total_time_ms: float                # kernel critical path + halo
    speedup: float
    efficiency: float

    def as_dict(self) -> dict:
        """JSON-serialisable row (the CI scaling artifact)."""
        return {
            "mode": self.mode, "shards": self.shards,
            "devices": list(self.devices), "n_points": self.n_points,
            "steps": self.steps, "kernel_time_ms": self.kernel_time_ms,
            "per_shard_kernel_ms": list(self.per_shard_kernel_ms),
            "halo_time_ms": self.halo_time_ms,
            "halo_bytes": self.halo_bytes,
            "total_time_ms": self.total_time_ms,
            "speedup": self.speedup, "efficiency": self.efficiency,
        }


def _decomposition_problem(scheme: str, topo, precision: str = "double",
                           num_branches: int = 3):
    """Host program + inputs/sizes/rotations for a resident multi-step
    run of the two-kernel scheme on one topology (seeded random state so
    boundary kernels do real work)."""
    from ..acoustics.lift_programs import (LEAPFROG, compiled_host,
                                           host_inputs)
    from ..acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
    g = topo.grid
    dtype = np.float32 if precision == "single" else np.float64
    rng = np.random.default_rng(42)
    inside = topo.room.inside_mask().reshape(-1)

    def state():
        a = np.zeros(g.num_points + g.nx * g.ny, dtype)
        a[:g.num_points][inside] = rng.standard_normal(int(inside.sum()))
        return a

    if scheme == "fd_mm":
        table = MaterialTable.from_fd(default_fd_materials(4), num_branches,
                                      dtype=dtype)
    else:
        table = MaterialTable.from_fi(default_fi_materials(4), dtype=dtype)
    curr, prev = state(), state()
    inputs, sizes = host_inputs(scheme, g, topo, table, prev, curr)
    host = compiled_host(scheme, precision, num_branches)
    return host, inputs, sizes, [LEAPFROG]


def _scaling_cell(mode: str, k: int, base: DeviceSpec, topo, scheme: str,
                  steps: int, precision: str) -> ScalingCell:
    from ..gpu.device import _shard_pool
    from ..gpu.multi import MultiGPU
    host, inputs, sizes, rot = _decomposition_problem(scheme, topo, precision)
    pool = _shard_pool(base, k)
    res = MultiGPU(pool).execute_many(host, inputs, sizes, steps,
                                      rotations=rot)
    kernel = res.kernel_time_ms()
    halo = res.halo_time_ms()
    return ScalingCell(
        mode=mode, shards=k, devices=res.devices,
        n_points=topo.grid.num_points, steps=steps,
        kernel_time_ms=kernel,
        per_shard_kernel_ms=tuple(res.per_shard_kernel_time_ms()),
        halo_time_ms=halo, halo_bytes=res.halo_bytes,
        total_time_ms=kernel + halo, speedup=1.0, efficiency=1.0)


def _with_speedups(mode: str, cells: list[ScalingCell]) -> list[ScalingCell]:
    """Fill speedup/efficiency relative to the first (reference) cell."""
    import dataclasses
    ref = cells[0]
    out = []
    for c in cells:
        if mode == "strong":
            speedup = ref.total_time_ms / c.total_time_ms
            eff = speedup * ref.shards / c.shards
        else:   # weak: ideal is constant total time at constant per-shard work
            eff = ref.total_time_ms / c.total_time_ms
            speedup = eff * c.shards / ref.shards
        out.append(dataclasses.replace(c, speedup=speedup, efficiency=eff))
    return out


def _scaling_base_device(device) -> DeviceSpec:
    base = resolve_device(device)[0]
    if "#" in base.name:        # already a shard of a pool: use its family
        from dataclasses import replace
        base = replace(base, name=base.name.split("#")[0])
    return base


def strong_scaling_sweep(device="RadeonR9", shard_counts=(1, 2, 4),
                         scheme: str = "fi_mm", size: str = "302",
                         shape: str = "box", scale: int = 4,
                         steps: int = 4,
                         precision: str = "double") -> list[ScalingCell]:
    """Fixed problem, growing pool: 1/2/4-way Z-slab decomposition of one
    paper room, reporting modelled speedup and the halo-overhead share."""
    from .rooms import room_topology
    base = _scaling_base_device(device)
    topo = room_topology(size, shape, scale)
    cells = [_scaling_cell("strong", k, base, topo, scheme, steps, precision)
             for k in shard_counts]
    return _with_speedups("strong", cells)


def weak_scaling_sweep(device="RadeonR9", shard_counts=(1, 2, 4),
                       scheme: str = "fi_mm", size: str = "302",
                       shape: str = "box", scale: int = 4,
                       steps: int = 4,
                       precision: str = "double") -> list[ScalingCell]:
    """Constant work per shard: the Z extent grows with the pool, so
    ideal scaling is a flat total time (efficiency = T_ref / T_k)."""
    from ..acoustics.geometry import Room, shape_by_name
    from ..acoustics.grid import Grid3D
    from ..acoustics.topology import build_topology
    from .rooms import scaled_dims
    base = _scaling_base_device(device)
    nx, ny, nz = scaled_dims(size, scale)
    cells = []
    for k in shard_counts:
        room = Room(Grid3D(nx, ny, nz * k), shape_by_name(shape))
        topo = build_topology(room, num_materials=4)
        cells.append(_scaling_cell("weak", k, base, topo, scheme, steps,
                                   precision))
    return _with_speedups("weak", cells)
