"""Deterministic text dashboard over a simulation-service snapshot.

``python -m repro.obs dashboard`` runs the serving tier's smoke
workload under an observability session and renders its state the way
an on-call page would: queue and throughput panels, SLO status with
burn rates, per-device utilisation, the top-N slowest traces, and the
flight-recorder accounting.  Because every number comes off the
modelled clock, the dashboard is a pure function of the workload and
the seed — two runs render byte-identical text and ``--json``
artifacts, which is what lets CI diff it like any other golden file.

The module is deliberately split from the CLI surface:

* :func:`service_snapshot` — one JSON-serialisable dict capturing a
  :class:`~repro.serve.scheduler.SimulationService` (works with
  observability off; the time-series/SLO panels are then ``null``);
* :func:`render_dashboard` — the text panels from a snapshot;
* :func:`validate_dashboard` — schema check CI keys off;
* :func:`main` — the ``dashboard`` subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["DASHBOARD_VERSION", "service_snapshot", "render_dashboard",
           "validate_dashboard"]

#: bump when the snapshot schema changes shape
DASHBOARD_VERSION = 1


# -- snapshot --------------------------------------------------------------------
def service_snapshot(svc, *, top: int = 5) -> dict:
    """A JSON-serialisable dashboard snapshot of one service.

    ``top`` bounds the slowest-traces panel.  The snapshot never
    mutates service state beyond one (idempotent) SLO evaluation, and
    contains only modelled-clock numbers — deterministic for a fixed
    workload.
    """
    stats = svc.stats()
    makespan = stats["makespan_ms"]
    devices = []
    for i, slot in enumerate(svc.pool.slots):
        busy = svc.slot_busy_ms[i]
        devices.append({
            "slot": i,
            "name": slot.spec.name,
            "busy_ms": round(busy, 6),
            "utilisation": round(busy / makespan, 6) if makespan > 0 else 0.0,
        })
    done = [h for h in svc._handles
            if h.state == "DONE" and h._result is not None]
    done.sort(key=lambda h: (-h._result.latency_ms, h.job_id))
    slowest = [{
        "trace_id": h.trace_id,
        "job_id": h.job_id,
        "scheme": h.request.scheme,
        "latency_ms": round(h._result.latency_ms, 6),
        "wait_ms": round(h._result.wait_ms, 6),
        "from_cache": h._result.from_cache,
        "attempts": h._result.attempts,
    } for h in done[:top]]
    slo = None
    if svc.slo is not None:
        statuses = svc.slo.evaluate(svc.now_ms)   # no obs: pure read
        slo = {
            "statuses": [s.as_dict() for s in statuses],
            "alerting": list(svc.slo.alerting()),
            "transitions": list(svc.slo.transitions),
        }
    return {
        "version": DASHBOARD_VERSION,
        "generated_at_ms": round(svc.now_ms, 6),
        "stats": stats,
        "devices": devices,
        "slowest": slowest,
        "timeseries": (svc.timeseries.snapshot()
                       if svc.timeseries is not None else None),
        "slo": slo,
        "flight": {"capacity": svc.flight.capacity,
                   "recorded": svc.flight.recorded,
                   "dropped": svc.flight.dropped,
                   "dumps": svc.flight.dumps},
    }


# -- rendering -------------------------------------------------------------------
def _bar(fraction: float, width: int = 20) -> str:
    n = max(0, min(width, int(round(fraction * width))))
    return "#" * n + "." * (width - n)


def render_dashboard(snap: dict) -> str:
    """The text panels (deterministic: same snapshot, same bytes)."""
    stats = snap["stats"]
    states = stats["states"]
    lines = []
    lines.append(f"repro serve dashboard (v{snap['version']}) — "
                 f"modelled clock {snap['generated_at_ms']:.3f} ms")
    lines.append(f"pool: {'+'.join(stats['pool'])}   "
                 f"jobs: {stats['submitted']} submitted   "
                 + "  ".join(f"{k}={states[k]}" for k in sorted(states)))
    lines.append(
        f"throughput: {stats['jobs_per_sec']:.2f} jobs/s   "
        f"wait p50/p95: {stats['wait_ms']['p50']:.3f}/"
        f"{stats['wait_ms']['p95']:.3f} ms   "
        f"latency p50/p95: {stats['latency_ms']['p50']:.3f}/"
        f"{stats['latency_ms']['p95']:.3f} ms")
    cache = stats["cache"]
    lines.append(
        f"cache: compile {cache['compile']['hits']}h/"
        f"{cache['compile']['misses']}m   "
        f"result {cache['result']['hits']}h/{cache['result']['misses']}m")

    lines.append("")
    lines.append("devices:")
    for d in snap["devices"]:
        lines.append(
            f"  [{d['slot']}] {d['name']:<12} "
            f"|{_bar(d['utilisation'])}| {d['utilisation'] * 100:6.2f}%  "
            f"busy {d['busy_ms']:.3f} ms")

    slo = snap.get("slo")
    lines.append("")
    if slo is None:
        lines.append("slo: (observability off)")
    else:
        lines.append("slo:")
        for s in slo["statuses"]:
            flag = ("ALERT" if s["alerting"]
                    else ("ok" if s["compliant"] else "warn"))
            lines.append(
                f"  {flag:<5} {s['name']:<15} {s['objective']:<40} "
                f"value={s['value']:.3f} burn={s['burn_short']:.2f}/"
                f"{s['burn_long']:.2f} n={s['samples']}")
        for t in slo["transitions"]:
            lines.append(f"  {t['event']} {t['slo']} at "
                         f"{t['at_ms']:.3f} ms (burn "
                         f"{t['burn_short']:.2f}/{t['burn_long']:.2f})")

    ts = snap.get("timeseries")
    if ts is not None:
        qd = ts["series"].get("queue_depth")
        if qd is not None and qd["windows"]:
            depths = " ".join(f"{w['last']:g}" for w in qd["windows"])
            lines.append("")
            lines.append(f"queue depth by window ({ts['width_ms']:g} ms): "
                         f"{depths}")

    lines.append("")
    lines.append("slowest traces:")
    if not snap["slowest"]:
        lines.append("  (none)")
    for r in snap["slowest"]:
        cached = " cached" if r["from_cache"] else ""
        lines.append(
            f"  {r['trace_id']} job#{r['job_id']:<3} {r['scheme']:<6} "
            f"latency {r['latency_ms']:9.3f} ms  wait "
            f"{r['wait_ms']:9.3f} ms  x{r['attempts']}{cached}")

    f = snap["flight"]
    lines.append("")
    lines.append(f"flight recorder: {f['recorded']} event(s) recorded, "
                 f"{f['dropped']} dropped (ring {f['capacity']}), "
                 f"{f['dumps']} dump(s)")
    return "\n".join(lines) + "\n"


# -- validation ------------------------------------------------------------------
def validate_dashboard(doc) -> list[str]:
    """Schema problems of a dashboard snapshot (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"snapshot must be a dict, got {type(doc).__name__}"]
    if doc.get("version") != DASHBOARD_VERSION:
        problems.append(f"version must be {DASHBOARD_VERSION}, "
                        f"got {doc.get('version')!r}")
    for key in ("generated_at_ms", "stats", "devices", "slowest", "flight"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    stats = doc.get("stats")
    if isinstance(stats, dict):
        for key in ("pool", "submitted", "states", "makespan_ms",
                    "jobs_per_sec", "wait_ms", "latency_ms", "cache"):
            if key not in stats:
                problems.append(f"stats missing key {key!r}")
    elif "stats" in doc:
        problems.append("stats must be a dict")
    for i, d in enumerate(doc.get("devices") or []):
        for key in ("slot", "name", "busy_ms", "utilisation"):
            if key not in d:
                problems.append(f"devices[{i}] missing key {key!r}")
        util = d.get("utilisation")
        if isinstance(util, (int, float)) and not 0.0 <= util <= 1.0 + 1e-9:
            problems.append(
                f"devices[{i}] utilisation {util} outside [0, 1]")
    for i, r in enumerate(doc.get("slowest") or []):
        for key in ("trace_id", "job_id", "latency_ms", "wait_ms"):
            if key not in r:
                problems.append(f"slowest[{i}] missing key {key!r}")
    slo = doc.get("slo")
    if slo is not None:
        for i, s in enumerate(slo.get("statuses") or []):
            for key in ("name", "objective", "value", "compliant",
                        "burn_short", "burn_long", "alerting", "samples"):
                if key not in s:
                    problems.append(f"slo.statuses[{i}] missing key {key!r}")
    ts = doc.get("timeseries")
    if ts is not None:
        if "series" not in ts or "width_ms" not in ts:
            problems.append("timeseries missing series/width_ms")
        for name, s in (ts.get("series") or {}).items():
            for i, w in enumerate(s.get("windows") or []):
                for key in ("start_ms", "end_ms", "count", "sum", "p50",
                            "p95", "p99", "rate_per_sec"):
                    if key not in w:
                        problems.append(
                            f"timeseries {name!r} window {i} missing "
                            f"key {key!r}")
    flight = doc.get("flight")
    if isinstance(flight, dict):
        for key in ("capacity", "recorded", "dropped"):
            if key not in flight:
                problems.append(f"flight missing key {key!r}")
    elif "flight" in doc:
        problems.append("flight must be a dict")
    return problems


# -- CLI -------------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs dashboard",
        description="Run the serving smoke workload and render the "
                    "deterministic service dashboard.")
    ap.add_argument("--jobs", type=int, default=8,
                    help="jobs to submit (default 8)")
    ap.add_argument("--steps", type=int, default=6,
                    help="time steps per job (default 6)")
    ap.add_argument("--pool", default="TitanBlack:2",
                    help="device designation (default TitanBlack:2)")
    ap.add_argument("--window-ms", type=float, default=1000.0,
                    help="time-series window width (default 1000)")
    ap.add_argument("--top", type=int, default=5,
                    help="slowest traces to show (default 5)")
    ap.add_argument("--json", metavar="PATH",
                    help="write the snapshot as JSON")
    ap.add_argument("--from", dest="from_path", metavar="FILE",
                    help="render an existing snapshot JSON instead of "
                         "running the workload")
    ap.add_argument("--validate", action="store_true",
                    help="schema-validate the snapshot; non-zero exit on "
                         "any problem")
    args = ap.parse_args(argv)

    if args.from_path:
        with open(args.from_path) as f:
            snap = json.load(f)
    else:
        from ..serve.chaos import _drive, build_workload
        from ..serve.scheduler import SimulationService
        svc = SimulationService(devices=args.pool, observability=True,
                                window_ms=args.window_ms)
        _drive(svc, build_workload(args.jobs, args.steps))
        snap = service_snapshot(svc, top=args.top)

    print(render_dashboard(snap), end="")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(snap, f, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    problems = validate_dashboard(snap) if args.validate else []
    for p in problems:
        print(f"INVALID dashboard: {p}", file=sys.stderr)
    return 1 if problems else 0
