"""Smoke scenario for the simulation service.

Runs the serving benchmark (:func:`repro.bench.serve.serve_benchmark`):
the deterministic job mix of :func:`repro.serve.chaos.build_workload`
(mixed priorities and schemes, with duplicates, so the result cache is
exercised) through a :class:`~repro.serve.scheduler.SimulationService`
over a shard pool, drained, and prints the service statistics.  With
``--verify`` every unique DONE job is re-run serially through
:meth:`repro.api.Session.simulate` and compared **bit-identically**
(fields, receivers); any mismatch or non-terminal job exits non-zero,
which is what CI keys off.

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

    from ..bench.serve import serve_benchmark
    stats = serve_benchmark(jobs=args.jobs, steps=args.steps,
                            pool=args.pool, faults=args.faults,
                            verify=args.verify, trace_path=args.trace)
    errors = stats["errors"]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(stats, f, indent=2, sort_keys=True)
    if args.trace:
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
    if stats["verified"]:
        print(f"verified: {stats['states']['DONE']} jobs "
              f"bit-identical to serial Session.simulate")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
