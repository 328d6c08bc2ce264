#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1|both] [--out DIR] [--smoke]

runs the workloads of ``BENCHMARK.json`` and the ledger-only ones of
``workloads.py``, verifies their outputs, prints every metric by name
with its unit and, as the last line of standard output for each
workload, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` (default) reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run, ``both``
runs the two passes back to back and adds the tracing overhead.  Any
failed op makes the exit code non-zero.

This process only orchestrates: every measurement happens in a fresh
child interpreter (``child.py``) with ``OMP_NUM_THREADS=1`` and a private
temp root under ``.bench_work/`` of the checkout — artifact cache,
durable directories and ``TMPDIR`` live there, ``~/.cache/repro`` is
never touched, and the root is removed even when the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import hostinfo  # noqa: E402
import procs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OMP_THREADS = 1
#: fresh process trees per ``setup_s`` (the timed child is one of them);
#: the reported value is their minimum
SETUP_TREES = 5
#: the contract allows a run 180 s; children are cut off before that
RUN_DEADLINE_S = 170.0
LEDGER_SCHEMA = "repro-perf-ledger/1"


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


class ChildFailed(Exception):
    pass


class Pass:
    """One pass (untraced or traced) of one workload: owns the private
    temp root and starts the children."""

    def __init__(self, workload: str, args, traced: bool, tmp: str):
        self.workload = workload
        self.args = args
        self.traced = traced
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.children: list[tuple[str, float]] = []     # (role, wall s)
        self.problems: list[str] = []
        for sub in ("loops", "tmp", "xdg"):
            os.makedirs(os.path.join(tmp, sub))
        self.env = dict(os.environ)
        self.env.update(
            OMP_NUM_THREADS=str(OMP_THREADS),
            REPRO_LOOPS_CACHE_DIR=os.path.join(tmp, "loops"),
            TMPDIR=os.path.join(tmp, "tmp"),
            XDG_CACHE_HOME=os.path.join(tmp, "xdg"),
            PYTHONPATH=os.pathsep.join(
                [os.path.join(REPO_ROOT, "src"), HERE]))
        # the tier is what select_tier() resolves on this host (it is
        # recorded with the result), not what the caller's shell forces
        self.env.pop("REPRO_LOOP_TIER", None)

    def child(self, role: str, **extra) -> dict:
        """Run one child to completion and return its result object."""
        stem = os.path.join(self.tmp, f"{len(self.children):02d}-{role}")
        work = stem + ".d"
        os.makedirs(work)
        cfg = {"workload": self.workload, "role": role,
               "seed": self.args.seed, "seconds": self.args.seconds,
               "smoke": self.args.smoke, "trace": self.traced,
               "trace_id": f"{self.workload}-seed{self.args.seed}",
               "tmp": work, "result_path": stem + ".result.json",
               "trace_path": os.path.join(self.tmp, "trace.json")}
        cfg.update(extra)
        with open(stem + ".json", "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), stem + ".json"],
            env=self.env, cwd=REPO_ROOT, start_new_session=True)
        grace = 3.0
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{role} child exceeded the run deadline")
            grace = 0.0
        finally:
            if _clear_group(proc.pid, grace):
                self.problems.append(
                    f"{role} child left processes behind (killed)")
            proc.wait()
            self.children.append((role, time.monotonic() - started))
        try:
            with open(cfg["result_path"], encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, ValueError):
            raise ChildFailed(f"{role} child wrote no result "
                              f"(exit code {proc.returncode})") from None
        if "error" in result:
            raise ChildFailed(f"{role} child failed:\n{result['error']}")
        return result


def _clear_group(pgid: int, grace_s: float) -> bool:
    """Give the child's process group ``grace_s`` to empty by itself
    (a multiprocessing resource tracker outlives its parent by a few
    milliseconds), then SIGKILL what is left; True when something was."""
    deadline = time.monotonic() + grace_s
    while procs.group_members(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return False
            return True
        time.sleep(0.02)
    return False


# -- one workload --------------------------------------------------------------

def untraced_pass(p: Pass) -> dict:
    p.child("prime")
    # the first tree also faults host memory in; the others run on either
    # side of the timed child so the samples span the whole run
    setups = [p.child("setup")["setup_s"]]
    timed = p.child("timed", perturb_ulp=p.args.perturb_ulp)
    setups.append(timed["setup_s"])
    if not p.args.smoke:
        setups += [p.child("setup")["setup_s"]
                   for _ in range(SETUP_TREES - 2)]
    return {
        "timed": timed, "setup_samples_s": setups,
        "metrics": {
            "setup_s": min(setups),
            "op_ms": timed.get("op_ms"),
            "peak_rss_mb": timed["rss_self_mb"] + timed["rss_children_mb"],
        }}


def traced_pass(p: Pass, spec: dict) -> dict:
    cold = p.child("prime")
    warm = p.child("prime")
    timed = p.child("timed")
    probe = p.child("probe")
    layers = {m["name"]: 0.0 for m in spec["per_layer"]}
    extra = {}
    measured = dict(timed.get("layers", {}))
    measured.update(probe["layers"])
    measured.update({
        "lift.cc_cold_build_s": cold["wall_s"],
        "lift.cc_warm_load_ms": 1e3 * warm["wall_s"],
        "gpu.parallel.shm_leaked": timed.get("shm_leaked", 0),
    })
    if "trace.op_ms" in measured:
        measured["trace.overhead_pct"] = 100.0 * (
            measured["trace.op_ms"] / measured["trace.untraced_op_ms"] - 1.0)
    if p.workload == "vgpu_302":
        raw = measured["loops.fd_mm.step_ms"]
        measured["gpu.vgpu.overhead_ms"] = timed["op_ms"] - raw
        measured["gpu.vgpu.overhead_x"] = timed["op_ms"] / raw
    if p.workload == "gateway_small" and "op_ms" in timed:
        measured["net.frontdoor_overhead_ms"] = (
            timed["op_ms"] - measured["api.simulate_ms"])
    for name, value in measured.items():
        (layers if name in layers else extra)[name] = value
    extra["best_block_op_ms"] = timed.get("op_ms")
    if "first_op_s" in timed:
        extra["first_op_s"] = timed["first_op_s"]
    extra["prime_cold"] = cold
    extra["prime_warm"] = warm
    return {"timed": timed, "metrics": layers, "detail": extra}


def run_workload(name: str, args, spec: dict, ledger: dict) -> int:
    """Both passes of one workload as asked for; prints the tables and
    the result line; returns the exit code."""
    why = next((w["why"] for w in spec["workloads"] if w["name"] == name),
               WORKLOADS[name].get("ledger_only"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    root = os.path.join(REPO_ROOT, ".bench_work",
                        f"{name}-{os.getpid()}-{time.time_ns()}")
    entry = ledger["workloads"].setdefault(
        name, {"why": why, "gated": "ledger_only" not in WORKLOADS[name]})
    passes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    metrics: dict = {}
    attempted = 0
    problems: list[str] = []
    try:
        for traced in passes:
            p = Pass(name, args, traced,
                     os.path.join(root, "traced" if traced else "untraced"))
            try:
                done = traced_pass(p, spec) if traced else untraced_pass(p)
            except ChildFailed as exc:
                problems.append(str(exc))
                problems += p.problems
                continue
            timed = done["timed"]
            ledger["host"].update(numpy=timed["numpy"],
                                  loop_tier=timed["loop_tier"])
            attempted += timed["attempted"]
            problems += timed["failures"] + p.problems
            missing = [k for k, v in done["metrics"].items() if v is None]
            problems += [f"no value for {k}" for k in missing]
            metrics.update(done["metrics"])
            _report(name, args, traced, done, units)
            print("  children: " + ", ".join(
                f"{role} {wall:.1f} s" for role, wall in p.children))
            if traced:
                entry["per_layer"] = done["metrics"]
                entry["detail"] = done["detail"]
                entry["self_times_ms"] = timed["self_times"]
                entry["traced_ops"] = _ops(timed)
                if args.out:
                    os.makedirs(args.out, exist_ok=True)
                    shutil.copyfile(
                        os.path.join(p.tmp, "trace.json"),
                        os.path.join(args.out, f"{name}.trace.json"))
                    entry["trace_file"] = f"{name}.trace.json"
            else:
                entry["end_to_end"] = done["metrics"]
                entry["setup_samples_s"] = done["setup_samples_s"]
                entry["ops"] = _ops(timed)
        if args.trace == "both" and not problems:
            e2e, layer = entry["end_to_end"], entry["per_layer"]
            entry["tracing_overhead"] = {
                "between_runs_pct":
                    100.0 * (layer["trace.op_ms"] / e2e["op_ms"] - 1.0),
                "within_traced_run_pct": layer["trace.overhead_pct"]}
            print(f"tracing overhead on op_ms: "
                  f"{entry['tracing_overhead']['between_runs_pct']:+.2f} % "
                  f"between the two runs, "
                  f"{layer['trace.overhead_pct']:+.2f} % between traced and "
                  f"untraced blocks of the traced run")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(root))     # .bench_work, once empty
        except OSError:
            pass
    failed = len(problems)
    for line in problems:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if v is not None}}))
    return 0 if failed == 0 else 1


def _ops(timed: dict) -> dict:
    return {"attempted": timed["attempted"],
            "failed": len(timed["failures"]), "blocks": timed.get("blocks"),
            "op_diag_ms": timed.get("op_diag_ms")}


def _report(name, args, traced, done, units) -> None:
    timed = done["timed"]
    label = "traced" if traced else "untraced"
    print(f"== {name}: seed {args.seed}, {args.seconds:g} s, {label}"
          f"{', smoke' if args.smoke else ''} ==")
    for key, value in done["metrics"].items():
        if value is not None:
            print(f"  {key:<36} {value:>14.6g} {units[key]}")
    if not traced:
        samples = " ".join(f"{s:.3f}" for s in done["setup_samples_s"])
        print(f"  setup_s is the minimum of {len(done['setup_samples_s'])} "
              f"fresh process trees: {samples}")
    diag = timed.get("op_diag_ms")
    if diag:
        print(f"  op_ms is the best of {timed['blocks']} blocks; "
              f"diagnostics over single ops: p50 {diag['p50']:.3f} ms, "
              f"p95 {diag['p95']:.3f} ms, n = {diag['n']}")
        print(f"  mvox_per_s (derived) "
              f"{timed['voxel_updates_per_op'] / timed['op_ms'] / 1e3:.2f}")
    print(f"  numpy {timed['numpy']}, loop tier {timed['loop_tier']}, "
          f"OMP threads {OMP_THREADS}")
    ok = timed["attempted"] - len(timed["failures"])
    print(f"  ops: {timed['attempted']} attempted, {ok} ok, "
          f"{len(timed['failures'])} failed")


def main(argv=None) -> int:
    spec = load_spec()
    names = list(WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="default: every workload in turn, the "
                         "ledger-only ones included")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase "
                         f"(default {spec['run_seconds']}, smoke 0)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--out", help="write ledger.json and traces here")
    ap.add_argument("--smoke", action="store_true",
                    help="scale-8 rooms, two blocks: a test of the runner")
    ap.add_argument("--perturb-ulp", action="store_true",
                    help="negative control: move one value of the verified "
                         "field by one ULP; the run must fail")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"{REPO_ROOT}/src/repro not found: the benchmark runs the "
              "program from source and needs the whole checkout",
              file=sys.stderr)
        return 2
    ledger = {"schema": LEDGER_SCHEMA, "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "host": hostinfo.collect(REPO_ROOT, OMP_THREADS),
              "workloads": {}}
    print("host: " + ", ".join(f"{k}={v}" for k, v in ledger["host"].items()))
    code = 0
    for name in ([args.workload] if args.workload else names):
        code |= run_workload(name, args, spec, ledger)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "ledger.json"), "w",
                  encoding="utf-8") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
