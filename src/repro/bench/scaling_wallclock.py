"""Strong-scaling wallclock sweep over the shard threads of a pool.

``python -m repro.bench scaling --wallclock`` runs the same room at a
list of shard counts and reports, per count:

* **measured** — real host seconds: the whole call (including opening
  the pool's plan and starting its shard threads) and the step loop;
* **modelled** — the virtual-GPU cost model's overlapped step time
  (``max(interior, halo) + boundary``, :func:`repro.gpu.costmodel.
  overlapped_step_time_ms`) versus its BSP sum, the speedup/efficiency
  that implies for the paper's devices, and the share of halo time the
  overlap schedule hides (:attr:`repro.gpu.parallel.PoolPlan.overlap`).

Both columns matter because they answer different questions.  Measured
numbers show the shard threads step the room bit-identically, at the
speed this host's cores give them: on a 1-core CI container every
thread shares that core, so measured speedup saturates at ~1x (and the
regression gate therefore never thresholds on it).  Modelled numbers
carry the scaling claim — they price the schedule on the paper's GPUs,
where interior compute genuinely runs concurrently with the exchange.

The 1-shard baseline is the *resident* single-device loop
(:meth:`VirtualGPU.execute_many`): the same compiled step over two time
levels per step that the shard threads split, so ratios compare
schedules rather than code paths.  Its ``loop_wall_s`` times the steps
alone, after the plan is open, as a pool's does, and every measured
speedup divides loop walls; ``wall_total_s`` is the whole call.
"""

from __future__ import annotations

import io
import time

import numpy as np

from .rooms import PAPER_SIZES, scaled_dims

#: shard counts swept by default — 1 is the serial resident baseline
DEFAULT_SHARDS = (1, 2, 4)

#: the modelled share of halo time the overlap schedule must hide at
#: the largest swept shard count (the tentpole acceptance bar)
HIDDEN_TARGET = 0.6


def _box_case(dims, scheme: str, precision: str):
    """Host program + inputs for a box room, mirroring the simulation's
    virtual-gpu setup (but standalone, so the sweep controls stepping)."""
    from ..acoustics.geometry import Room, shape_by_name
    from ..acoustics.grid import Grid3D
    from ..acoustics.host_io import host_inputs, host_program
    from ..acoustics.materials import MaterialTable, default_fi_materials
    from ..acoustics.topology import build_topology

    if scheme not in ("fi_mm",):
        raise ValueError(
            f"the scaling sweep drives the two-kernel fi_mm pipeline; "
            f"got scheme={scheme!r} (the bit-identity matrix across all "
            f"schemes lives in tests/gpu/test_parallel.py)")
    grid = Grid3D(*dims)
    topo = build_topology(Room(grid, shape_by_name("box")),
                          num_materials=4)
    dtype = np.float32 if precision == "single" else np.float64
    N = grid.num_points
    table = MaterialTable.from_fi(default_fi_materials(4), dtype=dtype)
    prev, curr = (np.zeros(N + grid.nx * grid.ny, dtype=dtype)
                  for _ in range(2))
    curr[grid.flat_index(grid.nx // 2, grid.ny // 2, grid.nz // 2)] = 1.0
    inputs, sizes = host_inputs(scheme, grid, topo, table, prev, curr)
    host = host_program(scheme, precision, table.num_branches)
    return dict(host=host, inputs=inputs, sizes=sizes, N=N)


def _run_baseline(case, steps: int):
    """The 1-shard run, as :meth:`VirtualGPU.execute_many` steps it:
    ``(result, whole-call wall, step-loop wall, modelled kernel ms)``.
    The loop wall times the steps alone, after the plan is open, as a
    pool's does."""
    from ..acoustics.lift_programs import LEAPFROG
    from ..gpu import NVIDIA_TITAN_BLACK, VirtualGPU
    from ..gpu.runtime import ResidentPlan
    gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
    t0 = time.perf_counter()
    state = ResidentPlan.stepping(
        gpu, case["host"].plan, dict(case["inputs"]), case["sizes"],
        [LEAPFROG], [])
    t_loop = time.perf_counter()
    for step in range(steps):
        state.run_fused(step)
        state.rotate()
    loop_wall = time.perf_counter() - t_loop
    res = state.finish()
    wall = time.perf_counter() - t0
    kernel_ms = sum(e.duration_ms for e in res.events
                    if e.kind == "kernel")
    return res, wall, loop_wall, kernel_ms


def scaling_wallclock_benchmark(scale: int = 1, size: str = "302",
                                scheme: str = "fi_mm",
                                precision: str = "double",
                                steps: int = 8,
                                shard_counts=DEFAULT_SHARDS) -> dict:
    """Sweep shard counts over one room; see the module docstring."""
    from ..acoustics.lift_programs import LEAPFROG
    from ..gpu import MultiGPU

    dims = scaled_dims(size, scale)
    case = _box_case(dims, scheme, precision)
    ref, base_wall, base_loop, base_kernel_ms = _run_baseline(case, steps)
    ref_final = np.asarray(ref.buffers["final:prev1_h"])[:case["N"]]
    base_step_model = base_kernel_ms / steps

    rows = []
    for k in sorted(set(int(c) for c in shard_counts)):
        if k <= 1:
            rows.append({
                "shards": 1, "mode": "resident",
                "bit_identical": True,
                "measured": {"wall_total_s": base_wall,
                             "loop_wall_s": base_loop,
                             "seconds_per_step": base_loop / steps,
                             "speedup": 1.0, "efficiency": 1.0},
                "modelled": {"step_ms": base_step_model,
                             "bsp_step_ms": base_step_model,
                             "speedup": 1.0, "efficiency": 1.0,
                             "hidden_fraction": 0.0},
            })
            continue
        pool = MultiGPU(f"TitanBlack:{k}", parallel=True)
        res = pool.execute_many(case["host"], dict(case["inputs"]),
                                case["sizes"], steps,
                                rotations=[LEAPFROG])
        ov = res.overlap
        final = np.asarray(res.buffers["final:prev1_h"])[:case["N"]]
        loop_wall = ov["measured"]["loop_wall_s"]
        step_model = ov["modelled"]["step_ms"] or base_step_model
        rows.append({
            "shards": k,
            "mode": sorted({p["mode"] for p in ov["per_shard"]})[0]
            if len({p["mode"] for p in ov["per_shard"]}) == 1 else "mixed",
            "bit_identical": bool(np.array_equal(final, ref_final)),
            "measured": {
                "wall_total_s": ov["measured"]["wall_total_s"],
                "loop_wall_s": loop_wall,
                "seconds_per_step": loop_wall / steps,
                "speedup": base_loop / loop_wall if loop_wall else 0.0,
                "efficiency": (base_loop / loop_wall / k
                               if loop_wall else 0.0),
            },
            "modelled": {
                "step_ms": step_model,
                "bsp_step_ms": ov["modelled"]["bsp_step_ms"],
                "speedup": base_step_model / step_model,
                "efficiency": base_step_model / step_model / k,
                "hidden_fraction": ov["modelled"]["hidden_fraction"],
            },
        })

    top = rows[-1]
    return {
        "benchmark": "scaling-wallclock",
        "room": {"size": size, "scale": scale, "shape": "box",
                 "dims": list(dims), "points": int(np.prod(dims)),
                 "paper_dims": list(PAPER_SIZES[size])},
        "scheme": scheme, "precision": precision, "steps": steps,
        "cpu_count": __import__("os").cpu_count(),
        "shard_counts": [r["shards"] for r in rows],
        "results": rows,
        "all_bit_identical": all(r["bit_identical"] for r in rows),
        "max_shards": top["shards"],
        "modelled_speedup_at_max": top["modelled"]["speedup"],
        "measured_speedup_at_max": top["measured"]["speedup"],
        "modelled_hidden_fraction_at_max":
            top["modelled"]["hidden_fraction"],
        "meets_hidden_target": bool(
            top["modelled"]["hidden_fraction"] >= HIDDEN_TARGET),
    }


def check_scaling_regression(payload: dict, baseline: dict,
                             tolerance: float = 0.2) -> list[str]:
    """Gate a fresh sweep against a committed baseline.

    Thresholds only on host-independent facts: bit-identity at every
    shard count, the *modelled* speedup and hidden fraction at each
    shard count (must not drop more than ``tolerance`` relative /
    ``tolerance`` absolute below the baseline), and that the modelled
    schedule still overlaps (mode stays ``overlap``).  Measured speedup
    is never gated — it is whatever the host's core count makes it.
    """
    failures: list[str] = []
    base = {r["shards"]: r for r in baseline.get("results", [])}
    for r in payload["results"]:
        k = r["shards"]
        if not r["bit_identical"]:
            failures.append(f"{k} shard(s): result no longer bit-identical"
                            f" to the 1-shard baseline")
        b = base.get(k)
        if b is None or k == 1:
            continue
        if b.get("mode") == "overlap" and r.get("mode") != "overlap":
            failures.append(
                f"{k} shard(s): overlap schedule no longer engages "
                f"(mode {r.get('mode')!r}, baseline 'overlap')")
        floor = b["modelled"]["speedup"] * (1.0 - tolerance)
        if r["modelled"]["speedup"] < floor:
            failures.append(
                f"{k} shard(s): modelled speedup "
                f"{r['modelled']['speedup']:.2f}x regressed "
                f">{tolerance:.0%} below baseline "
                f"{b['modelled']['speedup']:.2f}x (floor {floor:.2f}x)")
        hfloor = b["modelled"]["hidden_fraction"] - tolerance
        if r["modelled"]["hidden_fraction"] < hfloor:
            failures.append(
                f"{k} shard(s): modelled hidden fraction "
                f"{r['modelled']['hidden_fraction']:.2f} fell more than "
                f"{tolerance:.2f} below baseline "
                f"{b['modelled']['hidden_fraction']:.2f}")
    return failures


def render_scaling_wallclock(payload: dict | None = None, **kw) -> str:
    """Text table for ``python -m repro.bench scaling --wallclock``;
    pass an existing payload to render without re-running the sweep."""
    p = payload if payload is not None else scaling_wallclock_benchmark(**kw)
    out = io.StringIO()
    d = p["room"]["dims"]
    print(f"Strong scaling (wallclock) — {p['scheme']} "
          f"{p['precision']}, box {d[0]}x{d[1]}x{d[2]} "
          f"({p['room']['points']:,} points), {p['steps']} steps, "
          f"{p['cpu_count']} host core(s)", file=out)
    print(f"{'shards':>6} {'mode':>9} {'wall s':>8} {'loop s':>8} "
          f"{'meas x':>7} {'model x':>8} {'model eff':>9} "
          f"{'hidden %':>8} {'identical':>9}", file=out)
    for r in p["results"]:
        print(f"{r['shards']:>6} {r['mode']:>9} "
              f"{r['measured']['wall_total_s']:>8.3f} "
              f"{r['measured']['loop_wall_s']:>8.3f} "
              f"{r['measured']['speedup']:>6.2f}x "
              f"{r['modelled']['speedup']:>7.2f}x "
              f"{r['modelled']['efficiency']:>9.2f} "
              f"{r['modelled']['hidden_fraction'] * 100:>7.1f}% "
              f"{str(r['bit_identical']):>9}", file=out)
    print(f"modelled at {p['max_shards']} shards: "
          f"{p['modelled_speedup_at_max']:.2f}x speedup, "
          f"{p['modelled_hidden_fraction_at_max']:.0%} of halo hidden "
          f"(target >= {HIDDEN_TARGET:.0%}: "
          f"{'met' if p['meets_hidden_target'] else 'NOT met'}); "
          f"measured on this host: "
          f"{p['measured_speedup_at_max']:.2f}x", file=out)
    return out.getvalue()
