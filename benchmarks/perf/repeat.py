#!/usr/bin/env python3
"""Repeatability harness of the perf ledger.

    python3 benchmarks/perf/repeat.py --runs N [--sets K] [--workload NAME]

runs ``run.py`` ``N`` times per workload of ``BENCHMARK.json`` (or per
``--workload``, which may also name a ledger-only one), each time with
another ``--seed``, and prints per workload x end-to-end metric the
minimum, median and maximum and the spread — the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median — next to the bound in ``BENCHMARK.json``.  With
``--sets K`` it does that ``K`` times and also compares each set's
median with the first set's.  The exit code is non-zero when a run
fails, when a spread exceeds its bound (``setup_s`` is reported but,
like in the driver, not held to it: its spread is the host's first-touch
cost, not the program's), or when a later set's median is worse than the
first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, REPO_ROOT, WORKLOADS, load_spec


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, extra) -> dict | None:
    """The metrics of one ``run.py`` invocation, or ``None`` if it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", *extra],
        cwd=REPO_ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, required=True,
                    help="runs per workload and set (at least 2)")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", choices=list(WORKLOADS), action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    extra = (["--seconds", str(args.seconds)] if args.seconds is not None
             else []) + (["--smoke"] if args.smoke else [])
    bad = 0
    seed = 0
    first_median: dict = {}
    print("| set | workload | metric | min | median | max | spread | bound "
          "| verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for index in range(args.sets):
        for workload in args.workload or names:
            runs = []
            for _ in range(args.runs):
                seed += 1
                got = one_run(workload, seed, extra)
                if got is None:
                    print(f"run failed: {workload} --seed {seed}",
                          file=sys.stderr)
                    bad += 1
                else:
                    runs.append(got)
            if len(runs) < 2:
                continue
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                median = statistics.median(values)
                share = spread(values)
                verdict = "ok"
                if share > bound:
                    verdict = ("wide (not gated)" if name == "setup_s"
                               else "SPREAD > BOUND")
                base = first_median.setdefault((workload, name), median)
                if median > base * (1.0 + bound):
                    verdict = "MEDIAN WORSE THAN SET 1"
                bad += verdict.isupper()
                print(f"| {index + 1} | {workload} | {name} "
                      f"| {min(values):.5g} | {median:.5g} "
                      f"| {max(values):.5g} | {100 * share:.2f} % "
                      f"| {100 * bound:g} % | {verdict} |", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
