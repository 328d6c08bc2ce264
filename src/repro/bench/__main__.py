"""CLI: ``python -m repro.bench [artefact...] [--scale N]``."""

from __future__ import annotations

import argparse
import sys

from .report import RENDERERS, render_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures "
                    "(paper-vs-model comparison).")
    parser.add_argument("artefacts", nargs="*", default=["all"],
                        help="which artefacts to render: "
                             f"{sorted(RENDERERS)} or 'all'")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide room dimensions by this factor "
                             "(1 = full paper sizes; larger = faster)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="additionally write a JSON CI artifact: the "
                             "serve-throughput stats when 'serve' is among "
                             "the artefacts, the 'scaling' rows otherwise")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="scaling --wallclock: committed baseline JSON "
                             "to compare against; exits non-zero on a "
                             "regression")
    parser.add_argument("--wallclock", action="store_true",
                        help="with 'scaling': sweep shard counts through "
                             "the multi-process overlap executor and "
                             "report measured + modelled speedup, "
                             "efficiency and overlap-hidden-%% per count")
    parser.add_argument("--shards", default="1,2,4",
                        help="scaling --wallclock: comma-separated shard "
                             "counts to sweep")
    parser.add_argument("--steps", type=int, default=10,
                        help="scaling --wallclock: timed steps per "
                             "shard count")
    parser.add_argument("--loadgen", action="store_true",
                        help="with 'serve': open-loop Poisson load against "
                             "a real gateway (wallclock, worker processes) "
                             "instead of the modelled in-process benchmark")
    parser.add_argument("--rate", type=float, default=40.0,
                        help="loadgen: offered arrival rate, jobs/s")
    parser.add_argument("--jobs", type=int, default=120,
                        help="loadgen: total jobs to offer")
    parser.add_argument("--tenants", type=int, default=3,
                        help="loadgen: number of tenants (API keys)")
    parser.add_argument("--workers", type=int, default=2,
                        help="loadgen: gateway worker processes")
    parser.add_argument("--url", default=None,
                        help="loadgen: target an external gateway instead "
                             "of booting one in-process")
    parser.add_argument("--verify", action="store_true",
                        help="loadgen: bit-compare every unique result "
                             "against serial Session.simulate")
    args = parser.parse_args(argv)
    if args.loadgen:
        import json
        from .serve import loadgen_benchmark, render_loadgen
        payload = loadgen_benchmark(
            rate=args.rate, jobs=args.jobs, tenants=args.tenants,
            workers=args.workers, verify=args.verify, url=args.url)
        print(render_loadgen(payload))
        if args.json is not None:
            with open(args.json, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        ok = (payload["failed"] == 0 and payload["unfinished"] == 0
              and payload.get("verify", {}).get("bit_identical", True))
        return 0 if ok else 1
    artefacts = args.artefacts or ["all"]
    if artefacts == ["list"]:
        from .experiments import render_index
        print(render_index())
        return 0
    if args.wallclock and "scaling" in artefacts:
        import json
        from .scaling_wallclock import (check_scaling_regression,
                                        render_scaling_wallclock,
                                        scaling_wallclock_benchmark)
        shards = tuple(int(s) for s in args.shards.split(",") if s)
        payload = scaling_wallclock_benchmark(
            scale=args.scale, steps=args.steps, shard_counts=shards)
        print(render_scaling_wallclock(payload))
        if args.json is not None:
            with open(args.json, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        if args.baseline is not None:
            with open(args.baseline) as f:
                baseline = json.load(f)
            failures = check_scaling_regression(payload, baseline)
            for msg in failures:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            if failures:
                return 1
            print(f"no scaling regression vs {args.baseline}")
        return 0 if payload["all_bit_identical"] else 1
    if args.json is not None:
        import json
        if "serve" in artefacts:
            from .serve import serve_benchmark
            payload = serve_benchmark()
        else:
            from .report import scaling_rows
            payload = [c.as_dict() for c in scaling_rows(args.scale)]
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if artefacts == ["all"]:
        print(render_all(args.scale))
        return 0
    for a in artefacts:
        if a not in RENDERERS:
            parser.error(f"unknown artefact {a!r}; one of {sorted(RENDERERS)}")
        print(RENDERERS[a](args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
