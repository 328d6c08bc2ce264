"""Text reports for the regenerated tables and figures.

``python -m repro.bench [all|table2|table3|fig2|fig4|fig5|fig6] [--scale N]``
prints paper-vs-model comparisons in the same layout as the paper's
artefacts.  The checked-in EXPERIMENTS.md was produced from this output at
``--scale 1`` (full paper room sizes).
"""

from __future__ import annotations

import io

from . import figures


def _fmt(value, nd=2) -> str:
    if value is None:
        return "   -  "
    return f"{value:6.{nd}f}"


def _bar(value: float, vmax: float, width: int = 36) -> str:
    """A unicode bar scaled to vmax (the figures are bar charts)."""
    if vmax <= 0:
        return ""
    frac = max(0.0, min(1.0, value / vmax))
    cells = frac * width
    full = int(cells)
    partial = "▌" if cells - full >= 0.5 else ""
    return "█" * full + partial


def _throughput_chart(rows, title, impl="LIFT", precision="single",
                      paper_lookup=None) -> str:
    """Grouped horizontal bars of Gelem/s, one row per (device, shape, size)."""
    out = io.StringIO()
    sel = [r for r in rows
           if r["impl"] == impl and r["precision"] == precision]
    if not sel:
        return ""
    vmax = max(r["gelems"] for r in sel)
    print(title, file=out)
    for r in sel:
        shape = r.get("shape", "box")
        label = f"{r['device']:>11} {shape:>5} {r['size']:>4}"
        paper = ""
        if paper_lookup is not None:
            p = paper_lookup(r)
            if p is not None:
                paper = f"  (paper {p:4.2f})"
        print(f"{label}  {_bar(r['gelems'], vmax):<36} "
              f"{r['gelems']:5.2f}{paper}", file=out)
    return out.getvalue()


def render_table2(scale: int = 1) -> str:
    out = io.StringIO()
    print("Table II — room sizes and boundary points "
          f"(scale=1/{scale})" if scale != 1 else
          "Table II — room sizes and boundary points", file=out)
    print(f"{'size':>5} {'dims':>16} {'box(model)':>11} {'box(paper)':>11} "
          f"{'dome(model)':>12} {'dome(paper)':>12} {'box ctg':>8} {'dome ctg':>9}",
          file=out)
    for r in figures.table2_rows(scale):
        print(f"{r['size']:>5} {str(r['dims']):>16} {r['box_bpts']:>11,} "
              f"{r['box_paper_bpts']:>11,} {r['dome_bpts']:>12,} "
              f"{r['dome_paper_bpts']:>12,} {r['box_contiguity']:>8} "
              f"{r['dome_contiguity']:>9}", file=out)
    return out.getvalue()


def render_table3() -> str:
    out = io.StringIO()
    print("Table III — platforms", file=out)
    print(f"{'platform':>11} {'GB/s':>6} {'paper':>6} {'SP GFLOPS':>10} {'paper':>6}",
          file=out)
    for r in figures.table3_rows():
        print(f"{r['platform']:>11} {r['bandwidth_gbs']:>6.0f} "
              f"{r['paper_bandwidth_gbs']:>6} {r['sp_gflops']:>10.0f} "
              f"{r['paper_sp_gflops']:>6}", file=out)
    return out.getvalue()


def render_fig4(scale: int = 1) -> str:
    out = io.StringIO()
    print("Figure 4 / Table IV — FI kernel (box), time [ms] and throughput "
          "[Gelem/s]", file=out)
    print(f"{'device':>11} {'size':>5} {'impl':>7} {'prec':>7} "
          f"{'model ms':>9} {'paper ms':>9} {'Gelem/s':>8}", file=out)
    rows = figures.fig4_rows(scale)
    for r in rows:
        print(f"{r['device']:>11} {r['size']:>5} {r['impl']:>7} "
              f"{r['precision']:>7} {r['time_ms']:>9.2f} "
              f"{_fmt(r['paper_ms']):>9} {r['gelems']:>8.2f}", file=out)

    def paper_g(r):
        if r["paper_ms"] is None:
            return None
        from .rooms import PAPER_SIZES
        d = PAPER_SIZES[r["size"]]
        return d[0] * d[1] * d[2] / (r["paper_ms"] * 1e-3) / 1e9

    print(file=out)
    print(_throughput_chart(
        rows, "Figure 4 (chart) — FI throughput [Gelem/s], LIFT, single",
        paper_lookup=paper_g), file=out)
    return out.getvalue()


def _render_boundary(rows, title) -> str:
    out = io.StringIO()
    print(title, file=out)
    print(f"{'device':>11} {'shape':>5} {'size':>5} {'impl':>7} {'prec':>7} "
          f"{'model ms':>9} {'paper ms':>9} {'Gelem/s':>8}", file=out)
    for r in rows:
        print(f"{r['device']:>11} {r['shape']:>5} {r['size']:>5} "
              f"{r['impl']:>7} {r['precision']:>7} {r['time_ms']:>9.3f} "
              f"{_fmt(r['paper_ms']):>9} {r['gelems']:>8.2f}", file=out)

    def paper_g(r):
        if r["paper_ms"] is None:
            return None
        from .paper_data import TABLE2_ROOMS
        k = TABLE2_ROOMS[r["size"]][f"{r['shape']}_bpts"]
        return k / (r["paper_ms"] * 1e-3) / 1e9

    print(file=out)
    print(_throughput_chart(
        rows, title.split("—")[0].strip()
        + " (chart) — throughput [Gelem/s], LIFT, single",
        paper_lookup=paper_g), file=out)
    return out.getvalue()


def render_fig5(scale: int = 1) -> str:
    return _render_boundary(
        figures.fig5_rows(scale),
        "Figure 5 / Table V — FI-MM boundary kernel, box & dome")


def render_fig6(scale: int = 1) -> str:
    return _render_boundary(
        figures.fig6_rows(scale),
        "Figure 6 / Table VI — FD-MM boundary kernel (MB=3), box & dome")


def render_fig2(scale: int = 1) -> str:
    out = io.StringIO()
    print("Figure 2 — boundary handling % of total computation time "
          "(GTX 780, two-kernel scheme)", file=out)
    print(f"{'shape':>5} {'scheme':>6} {'302':>6} {'336':>6} {'602':>6} "
          f"{'max':>6} {'paper~':>7}", file=out)
    for r in figures.fig2_rows(scale):
        by = r["share_pct_by_size"]
        print(f"{r['shape']:>5} {r['scheme']:>6} "
              f"{by['302']:>6.1f} {by['336']:>6.1f} {by['602']:>6.1f} "
              f"{r['share_pct_max']:>6.1f} {_fmt(r['paper_pct'], 1):>7}",
              file=out)
    return out.getvalue()


def render_counts(scale: int = 1) -> str:
    """§VII-B2 per-update resource counts, paper vs IR analysis."""
    from .harness import kernel_resources
    from .paper_data import PAPER_RESOURCE_COUNTS
    out = io.StringIO()
    print("§VII-B2 — per-update resource counts (paper vs IR analysis)",
          file=out)
    print(f"{'kernel':>8} {'metric':>16} {'paper':>6} {'measured':>9}",
          file=out)
    for kind in ("fi_mm", "fd_mm"):
        r = kernel_resources(kind, "double")
        paper = PAPER_RESOURCE_COUNTS[kind]
        print(f"{kind:>8} {'memory accesses':>16} "
              f"{paper['memory_accesses']:>6} {r.memory_accesses:>9.0f}",
              file=out)
        print(f"{kind:>8} {'flops':>16} {paper['flops']:>6} "
              f"{r.flops:>9.0f}", file=out)
        print(f"{kind:>8} {'flops+int ops':>16} {'':>6} "
              f"{r.flops + r.int_ops:>9.0f}", file=out)
    return out.getvalue()


def scaling_rows(scale: int = 1) -> list:
    """Strong + weak scaling cells (JSON-able via ``as_dict``).

    ``--scale`` semantics match the figures: it further divides the room
    on top of the sweep's own default reduction.
    """
    from .harness import strong_scaling_sweep, weak_scaling_sweep
    eff_scale = max(4, 4 * scale)
    return (strong_scaling_sweep(scale=eff_scale)
            + weak_scaling_sweep(scale=eff_scale))


def render_scaling(scale: int = 1) -> str:
    out = io.StringIO()
    print("Scaling — Z-slab domain decomposition (RadeonR9 pool, fi_mm, "
          "modelled)", file=out)
    print(f"{'mode':>6} {'shards':>6} {'points':>8} {'kernel ms':>10} "
          f"{'halo ms':>8} {'halo B':>8} {'speedup':>8} {'eff':>5}  "
          f"per-shard kernel ms", file=out)
    for c in scaling_rows(scale):
        per = " ".join(f"{v:.4f}" for v in c.per_shard_kernel_ms)
        print(f"{c.mode:>6} {c.shards:>6} {c.n_points:>8,} "
              f"{c.kernel_time_ms:>10.4f} {c.halo_time_ms:>8.4f} "
              f"{c.halo_bytes:>8,} {c.speedup:>8.2f} {c.efficiency:>5.2f}  "
              f"{per}", file=out)
    return out.getvalue()


def render_serve(scale: int = 1) -> str:
    from .serve import render_serve as _render
    return _render(scale)


RENDERERS = {
    "table2": render_table2,
    "table3": lambda scale=1: render_table3(),
    "fig2": render_fig2,
    "fig4": render_fig4,
    "fig5": render_fig5,
    "fig6": render_fig6,
    "counts": render_counts,
    "scaling": render_scaling,
    "serve": render_serve,
}


def render_all(scale: int = 1) -> str:
    parts = [RENDERERS[k](scale) for k in
             ("table2", "table3", "counts", "fig2", "fig4", "fig5", "fig6",
              "scaling", "serve")]
    return "\n".join(parts)
