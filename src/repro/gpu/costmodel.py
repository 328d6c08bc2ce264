"""Analytic kernel-time model (roofline + DRAM sectors + occupancy).

The model computes, for one kernel launch of ``n_items`` work items:

``t = max(t_mem, t_compute) / occupancy(wg) + launch_overhead``

*Memory time* sums, per access recorded by :mod:`repro.lift.analysis`:

* **contiguous** accesses — full coalescing, but repeated loads of the
  same array within a work item (stencil neighbours) are collapsed to one
  fetch plus a leading-dimension miss term (``stencil_reuse``);
* **gathered** accesses — data-dependent indices.  Cost is the *measured*
  DRAM-sector footprint of the actual index array
  (:func:`sector_bytes_per_item`): an isolated 4- or 8-byte access still
  moves a whole 32 B (NVIDIA) / 64 B (AMD) sector.  This single mechanism
  reproduces three observations of the paper's §VII-B: boundary kernels
  gain little from single precision; the box outperforms the dome; the
  uniform 336³ room dips (its boundary has shorter unit-stride runs);
* **table** accesses — per-material coefficient reads; cache-resident and
  charged at a small fraction of their raw bytes.  When the implementation
  does *not* place the table in constant memory on an NVIDIA device (the
  LIFT version passes it as a kernel argument — the paper's explanation of
  the FI-MM double-precision gap, §VII-B1), a latency penalty applies in
  double precision.

*Compute time* charges flops at the precision's peak rate, integer ops at
the SP rate, and multiplies divergent kernels by a small penalty.

All constants are calibrated once against a handful of the paper's Table
IV–VI cells and then held fixed; EXPERIMENTS.md records per-cell
paper-vs-model numbers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..lift.resources import Resources
from .device import DeviceSpec


@dataclass(frozen=True)
class ImplTraits:
    """Implementation-specific code-generation traits.

    ``table_in_constant_memory`` — hand-written kernels hard-code the
    per-material coefficient tables into constant/private memory; LIFT
    passes them as ordinary global-memory kernel arguments (paper
    §VII-B1).
    ``stencil_reuse`` — effective fetches per stencil-array load beyond
    the first (leading-dimension cache misses).
    """

    name: str
    table_in_constant_memory: bool
    #: total effective fetches (in units of one element) for a >=5-point
    #: same-array stencil access group; neighbouring work items share
    #: cache lines, so 7 reads cost ~1.7 fetches
    stencil_reuse: float = 1.7
    divergence_penalty: float = 1.25


HANDWRITTEN_TRAITS = ImplTraits(name="OpenCL", table_in_constant_memory=True)
LIFT_TRAITS = ImplTraits(name="LIFT", table_in_constant_memory=False)

#: fraction of raw table bytes charged when the table is cache-resident
_TABLE_CACHED_FRACTION = 0.05
#: latency penalty for global-memory table reads on NVIDIA in double
#: precision (LIFT passes tables as arguments; the paper's own explanation
#: of the FI-MM double-precision discrepancy)
_NVIDIA_DOUBLE_TABLE_PENALTY = 1.15

#: achieved-bandwidth derating for 4-byte-element *stencil* kernels: the
#: paper's Table IV shows the FI stencil gains only ~1.4x from single
#: precision (it sustains a smaller fraction of peak than the double
#: variant), with GCN far less sensitive than Kepler.  Boundary kernels
#: are DRAM-sector dominated and show no such derating (Tables V-VI), so
#: the factor applies only to kernels with a stencil access group.
_SINGLE_PRECISION_BW_FACTOR = {"nvidia": 0.65, "amd": 0.95}


@dataclass
class KernelTiming:
    """A modelled launch time with its breakdown."""

    time_ms: float
    mem_time_ms: float
    compute_time_ms: float
    bytes_per_item: float
    flops_per_item: float
    occupancy: float
    workgroup: int

    def __repr__(self) -> str:
        return (f"KernelTiming({self.time_ms:.4f} ms, mem={self.mem_time_ms:.4f},"
                f" comp={self.compute_time_ms:.4f}, B/item="
                f"{self.bytes_per_item:.1f}, wg={self.workgroup})")


@dataclass(frozen=True)
class OverlapTiming:
    """Modelled per-step timing of the overlapped shard schedule.

    BSP pricing sums interior + boundary + halo serially; the overlap
    schedule runs the interior sweep concurrently with the neighbour
    halo exchange, synchronising only before the boundary sweeps, so a
    step costs ``max(interior, halo) + boundary``.  ``hidden_ms`` is
    the exchange time masked by interior compute; ``exposed_ms`` is the
    remainder that still lands on the critical path.
    """

    interior_ms: float
    boundary_ms: float
    halo_ms: float
    step_ms: float
    bsp_step_ms: float
    hidden_ms: float
    exposed_ms: float

    @property
    def hidden_fraction(self) -> float:
        """Share of halo-exchange time hidden behind interior compute
        (0.0 when there is no exchange)."""
        return self.hidden_ms / self.halo_ms if self.halo_ms > 0 else 0.0


def overlapped_step_time_ms(interior_ms: float, boundary_ms: float,
                            halo_ms: float) -> OverlapTiming:
    """Price one shard step under compute/communication overlap.

    The interior kernel touches no halo data, so it runs while the
    neighbour planes are in flight: the pair costs the slower of the
    two, the boundary sweep (which reads the freshly arrived planes)
    then runs serially.  The BSP alternative — everything serialised —
    is reported alongside so scaling tables can show both.
    """
    interior_ms = max(0.0, float(interior_ms))
    boundary_ms = max(0.0, float(boundary_ms))
    halo_ms = max(0.0, float(halo_ms))
    hidden = min(interior_ms, halo_ms)
    return OverlapTiming(
        interior_ms=interior_ms, boundary_ms=boundary_ms, halo_ms=halo_ms,
        step_ms=max(interior_ms, halo_ms) + boundary_ms,
        bsp_step_ms=interior_ms + halo_ms + boundary_ms,
        hidden_ms=hidden, exposed_ms=halo_ms - hidden)


def transfer_time_ms(nbytes: float, device: DeviceSpec) -> float:
    """Modelled host<->device transfer time [ms] for ``nbytes``.

    Prices transfers at :attr:`DeviceSpec.pcie_bandwidth`, the one place
    the interconnect bandwidth lives (the runtime's H2D/D2H profiling
    events use this same function).
    """
    return float(nbytes) / device.pcie_bandwidth * 1e3


def peer_connected(src: DeviceSpec, dst: DeviceSpec) -> bool:
    """True when two devices have a direct peer path: both sit on the
    same (non-empty) board and both advertise an interconnect (the
    295X2's on-board PLX bridge)."""
    return bool(src.board and src.board == dst.board
                and src.interconnect_bandwidth_gbs > 0
                and dst.interconnect_bandwidth_gbs > 0)


def halo_exchange_time_ms(nbytes: float, src: DeviceSpec,
                          dst: DeviceSpec) -> float:
    """Modelled device->device halo-transfer time [ms] for ``nbytes``.

    Peer-to-peer when :func:`peer_connected` — one hop at the slower of
    the two link rates.  Otherwise the payload stages through host
    memory: a D2H on the source plus an H2D on the destination, each
    priced by :func:`transfer_time_ms`.
    """
    if peer_connected(src, dst):
        link = min(src.interconnect_bandwidth_gbs,
                   dst.interconnect_bandwidth_gbs) * 1e9
        return float(nbytes) / link * 1e3
    return transfer_time_ms(nbytes, src) + transfer_time_ms(nbytes, dst)


def sector_bytes_per_item(indices: np.ndarray, width: int,
                          sector: int) -> float:
    """Mean DRAM bytes moved per element for a gather at ``indices``.

    Counts the distinct ``sector``-byte lines the access stream touches —
    the exact coalescing behaviour of a GPU memory system for a warp-wide
    gather — and amortises them over the elements.  The lines of an
    ascending index (a boundary-index array) are counted as runs as they
    come; any other order is counted on a sorted copy.
    """
    if indices.size == 0:
        return float(width)
    lines = indices.astype(np.int64) * width // sector
    if np.any(lines[1:] < lines[:-1]):
        lines.sort()
    n_lines = 1 + int(np.count_nonzero(lines[1:] != lines[:-1]))
    return float(n_lines * sector) / float(indices.size)


def _occupancy(n_items: int, wg: int, device: DeviceSpec,
               registers_heavy: bool) -> float:
    """Fraction of peak throughput sustained at this workgroup size."""
    wg = max(1, wg)
    # sub-warp workgroups waste SIMD lanes
    simd = min(1.0, wg / device.warp_size)
    # tail effect: the last wave of workgroups is partially empty
    groups = max(1, -(-n_items // wg))
    waves = max(1, -(-groups // device.compute_units))
    tail = n_items / float(waves * device.compute_units * wg)
    tail = min(1.0, tail)
    # register pressure: very large workgroups hurt register-heavy kernels
    spill = 1.0
    if registers_heavy and wg > 128:
        spill = 1.0 / (1.0 + 0.08 * (wg / 128 - 1))
    elif wg > 512:
        spill = 0.92
    return max(0.05, simd * max(tail, 0.55) * spill)


def kernel_time(resources: Resources, n_items: int, device: DeviceSpec,
                precision: str, traits: ImplTraits = LIFT_TRAITS,
                gather_index: np.ndarray | None = None,
                workgroup: int = 256) -> KernelTiming:
    """Modelled execution time of one kernel launch.

    ``gather_index`` — the actual index array used by gathered accesses
    (the boundary-index array); when absent, gathers are priced at one
    full sector each.
    """
    return workgroup_pricer(resources, n_items, device, precision, traits,
                            gather_index)(workgroup)


def workgroup_pricer(resources: Resources, n_items: int, device: DeviceSpec,
                     precision: str, traits: ImplTraits = LIFT_TRAITS,
                     gather_index: np.ndarray | None = None):
    """:func:`kernel_time` as a function of the workgroup size alone:
    the launch's bytes and flops — its memory and compute time, each
    gather's sectors counted once per access width — are priced here,
    once, and only the occupancy is left per workgroup."""
    sector = device.sector_bytes

    @functools.cache
    def gathered(width: int) -> float:
        if gather_index is None:
            return float(sector)
        return sector_bytes_per_item(gather_index, width, sector)

    bytes_per_item = 0.0

    # contiguous loads: collapse multi-loads of one array (stencil reuse)
    per_array: dict[str, float] = {}
    for (arr, cls, width), count in resources.loads_detail.items():
        if cls == "contiguous":
            if count >= 5:
                # stencil access group: neighbour reads hit cache; the whole
                # group costs ~stencil_reuse fetches (calibrated)
                eff = width * traits.stencil_reuse
            else:
                # distinct coalesced streams (e.g. ODE branch planes at
                # stride K): each is real traffic
                eff = width * count
            per_array[arr] = per_array.get(arr, 0.0) + eff
        elif cls == "gathered":
            per_array[arr] = per_array.get(arr, 0.0) + gathered(width) * count
        elif cls == "table":
            frac = _TABLE_CACHED_FRACTION
            per_array[arr] = per_array.get(arr, 0.0) + width * count * frac
    bytes_per_item += sum(per_array.values())

    for (arr, cls, width), count in resources.stores_detail.items():
        if cls == "gathered":
            bytes_per_item += gathered(width) * count
        else:
            bytes_per_item += width * count

    has_stencil_group = any(
        cls == "contiguous" and count >= 5
        for (_, cls, _), count in resources.loads_detail.items())
    bw = device.effective_bandwidth
    if precision == "single" and has_stencil_group:
        bw *= _SINGLE_PRECISION_BW_FACTOR.get(device.vendor, 1.0)
    t_mem = bytes_per_item * n_items / bw

    flops = resources.flops
    int_ops = resources.int_ops + resources.comparisons
    t_comp = (flops * n_items / device.flops_rate(precision)
              + int_ops * n_items / (device.sp_gflops * 1e9))
    if resources.divergent:
        t_comp *= traits.divergence_penalty

    has_tables = any(cls == "table" for (_, cls, _) in resources.loads_detail)
    table_penalty = 1.0
    if (has_tables and not traits.table_in_constant_memory
            and device.vendor == "nvidia" and precision == "double"):
        table_penalty = _NVIDIA_DOUBLE_TABLE_PENALTY
    registers_heavy = resources.memory_accesses > 20

    def at(workgroup: int) -> KernelTiming:
        occ = _occupancy(n_items, workgroup, device, registers_heavy)
        t = max(t_mem, t_comp) * table_penalty / occ
        t += device.launch_overhead_us * 1e-6
        return KernelTiming(time_ms=t * 1e3, mem_time_ms=t_mem * 1e3,
                            compute_time_ms=t_comp * 1e3,
                            bytes_per_item=bytes_per_item,
                            flops_per_item=flops, occupancy=occ,
                            workgroup=workgroup)
    return at
