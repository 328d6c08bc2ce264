"""Per-kernel profiling report — the virtual analogue of the paper's
Table IV: per device and kernel, the launch count, modelled time, mean
occupancy, achieved bandwidth against the device roofline, and achieved
GFLOPS against the precision's peak.

Rows are aggregated from the tracer's ``cat == "kernel"`` spans, whose
attributes the runtime fills from :class:`repro.gpu.costmodel.KernelTiming`
and :class:`repro.lift.resources.Resources` at launch time, so the report
reflects exactly what was executed (post-autotuning workgroup sizes,
fault-free winning attempts and ``failed_kernel`` retries alike are
distinguishable by category).
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracer import Tracer


@dataclass
class KernelReportRow:
    """Aggregated launch statistics for one (device, kernel) pair."""

    device: str
    kernel: str
    precision: str
    launches: int
    total_ms: float
    mean_ms: float
    occupancy: float            # mean across launches
    workgroup: int              # last autotuned workgroup size
    achieved_gbs: float         # total bytes / total time
    roofline_gbs: float         # device effective bandwidth
    achieved_gflops: float
    peak_gflops: float

    @property
    def pct_roofline(self) -> float:
        return (100.0 * self.achieved_gbs / self.roofline_gbs
                if self.roofline_gbs else 0.0)

    @property
    def pct_peak(self) -> float:
        return (100.0 * self.achieved_gflops / self.peak_gflops
                if self.peak_gflops else 0.0)


def kernel_report(tracer: Tracer) -> list[KernelReportRow]:
    """Aggregate every ``kernel`` span into per-(device, kernel) rows."""
    groups: dict[tuple[str, str, str], list] = {}
    for s in tracer.finished():
        if s.cat != "kernel":
            continue
        key = (str(s.attrs.get("device", "?")), s.name,
               str(s.attrs.get("precision", "?")))
        groups.setdefault(key, []).append(s)
    rows: list[KernelReportRow] = []
    for (device, kernel, precision), spans in sorted(groups.items()):
        total_ms = sum(s.duration_ms for s in spans)
        total_bytes = sum(float(s.attrs.get("bytes", 0.0)) for s in spans)
        total_flops = sum(float(s.attrs.get("flops", 0.0)) for s in spans)
        secs = total_ms * 1e-3
        rows.append(KernelReportRow(
            device=device, kernel=kernel, precision=precision,
            launches=len(spans), total_ms=total_ms,
            mean_ms=total_ms / len(spans),
            occupancy=sum(float(s.attrs.get("occupancy", 0.0))
                          for s in spans) / len(spans),
            workgroup=int(spans[-1].attrs.get("workgroup", 0)),
            achieved_gbs=total_bytes / secs / 1e9 if secs > 0 else 0.0,
            roofline_gbs=float(spans[-1].attrs.get("roofline_gbs", 0.0)),
            achieved_gflops=total_flops / secs / 1e9 if secs > 0 else 0.0,
            peak_gflops=float(spans[-1].attrs.get("peak_gflops", 0.0)),
        ))
    return rows


def render_kernel_report(rows: list[KernelReportRow]) -> str:
    """Fixed-width text table of :func:`kernel_report` rows."""
    header = (f"{'device':<12} {'kernel':<28} {'prec':<6} {'n':>5} "
              f"{'total ms':>10} {'mean ms':>9} {'occ':>5} {'wg':>5} "
              f"{'GB/s':>8} {'%roof':>6} {'GFLOPS':>8} {'%peak':>6}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.device:<12} {r.kernel:<28.28} {r.precision:<6} "
            f"{r.launches:>5d} {r.total_ms:>10.3f} {r.mean_ms:>9.4f} "
            f"{r.occupancy:>5.2f} {r.workgroup:>5d} {r.achieved_gbs:>8.1f} "
            f"{r.pct_roofline:>6.1f} {r.achieved_gflops:>8.1f} "
            f"{r.pct_peak:>6.1f}")
    if not rows:
        lines.append("(no kernel launches traced)")
    return "\n".join(lines)
