"""Smoke scenario for the simulation service.

Submits a deterministic batch of mixed-priority, mixed-scheme jobs
(including one duplicate, so the result cache is exercised) to a
:class:`~repro.serve.scheduler.SimulationService` over a shard pool,
drains it, and prints the service statistics.  With ``--verify`` every
DONE job is re-run serially through :meth:`repro.api.Session.simulate`
and compared **bit-identically** (fields, receivers); any mismatch or
non-terminal job exits non-zero, which is what CI keys off.

Usage::

    python -m repro.serve --jobs 8 --pool TitanBlack:2 --faults \\
        --verify --json serve-smoke.json

``python -m repro.serve chaos ...`` dispatches to the kill-and-recover
chaos harness instead (see :mod:`repro.serve.chaos`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .job import SubmitRequest, verify_against_serial
from .scheduler import SimulationService

#: the deterministic job mix the smoke cycles through
_MIX = (
    # (scheme, precision, priority, grid)
    ("fi", "double", 0, (12, 10, 8)),
    ("fi_mm", "double", 5, (12, 10, 8)),
    ("fd_mm", "double", 2, (10, 10, 8)),
    ("fi_mm", "single", 9, (14, 10, 8)),
    ("fi", "single", 1, (12, 12, 8)),
    ("fd_mm", "double", 7, (10, 10, 8)),   # duplicate of job 2 -> cache hit
    ("fi_mm", "double", 3, (12, 10, 8)),   # same program as job 1 -> batch
    ("fi", "double", 4, (16, 10, 8)),
)


def build_jobs(n: int, steps: int) -> list[SubmitRequest]:
    """The first ``n`` requests of the deterministic mix (cycled)."""
    from ..acoustics import BoxRoom, Grid3D, Room
    jobs = []
    for i in range(n):
        scheme, precision, priority, dims = _MIX[i % len(_MIX)]
        room = Room(Grid3D(*dims), BoxRoom())
        jobs.append(SubmitRequest(
            room=room, steps=steps, scheme=scheme, precision=precision,
            priority=priority, receivers={"mic": "center"}))
    return jobs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["chaos"]:
        from .chaos import main as chaos_main
        return chaos_main(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="simulation-service smoke scenario")
    ap.add_argument("--jobs", type=int, default=8,
                    help="number of jobs to submit (default 8)")
    ap.add_argument("--steps", type=int, default=6,
                    help="time steps per job (default 6)")
    ap.add_argument("--pool", default="TitanBlack:2",
                    help="device designation (default TitanBlack:2)")
    ap.add_argument("--faults", action="store_true",
                    help="inject seeded transient faults (service runs "
                         "resilient so jobs still terminate)")
    ap.add_argument("--verify", action="store_true",
                    help="compare every DONE job bit-identically against "
                         "serial Session.simulate")
    ap.add_argument("--json", metavar="PATH",
                    help="write the service stats as JSON")
    ap.add_argument("--trace", metavar="PATH",
                    help="write the service's Chrome trace (per-job "
                         "lanes keyed by trace id)")
    args = ap.parse_args(argv)

    faults = None
    if args.faults:
        from ..gpu.faults import FaultPlan, FaultSpec
        faults = FaultPlan([FaultSpec("launch_abort", steps=(2,)),
                            FaultSpec("transfer_fail", rate=0.02)], seed=7)
    svc = SimulationService(devices=args.pool, resilient=args.faults,
                            faults=faults, observability=True)
    handles = [svc.submit(r) for r in build_jobs(args.jobs, args.steps)]
    svc.drain()
    stats = svc.stats()

    nonterminal = [h.job_id for h in handles if not h.done]
    failed = [h.job_id for h in handles if h.state == "FAILED"]
    errors = [f"non-terminal jobs: {nonterminal}"] if nonterminal else []
    errors += [f"failed jobs: {failed}"] if failed else []
    if args.verify:
        for h in handles:
            if h.state == "DONE":
                errors += verify_against_serial(
                    h.request, h._result.field, h._result.receivers)

    stats["verified"] = args.verify and not errors
    stats["errors"] = errors
    if args.json:
        with open(args.json, "w") as f:
            json.dump(stats, f, indent=2, sort_keys=True)
    if args.trace:
        from ..obs import write_chrome_trace
        write_chrome_trace(svc.obs.tracer, args.trace)
        print(f"wrote {args.trace}")
    print(f"pool={'+'.join(stats['pool'])} jobs={stats['submitted']} "
          f"states={stats['states']} "
          f"jobs/s={stats['jobs_per_sec']:.2f} "
          f"p95_latency={stats['latency_ms']['p95']:.3f}ms "
          f"batches={stats['batches']}")
    print(f"cache: compile={stats['cache']['compile']} "
          f"result={stats['cache']['result']}")
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if args.verify and not errors:
        print(f"verified: {sum(h.state == 'DONE' for h in handles)} jobs "
              f"bit-identical to serial Session.simulate")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
