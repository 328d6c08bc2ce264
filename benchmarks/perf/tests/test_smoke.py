"""End to end: the one command on scale-6 rooms, every code path."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from paths import PERF_DIR, REPO_ROOT, load_spec

import workloads

pytest.importorskip("repro")

RUN = [sys.executable, os.path.join(PERF_DIR, "run.py")]


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_smoke_runs_every_workload_traced_and_untraced(tmp_path):
    spec = load_spec()
    started = time.monotonic()
    proc = subprocess.run(RUN + ["--smoke", "--trace", "both", "--out",
                                 str(tmp_path)],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=170)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0, f"smoke took {elapsed:.1f} s"
    results = _result_lines(proc.stdout)
    assert len(results) == len(workloads.WORKLOADS)
    wanted = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        for name in ("setup_s", "op_ms", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    # the ledger and the traces it names
    with open(tmp_path / "ledger.json", encoding="utf-8") as f:
        ledger = json.load(f)
    assert ledger["schema"] == "repro-perf-ledger/1"
    for key in ("nproc", "cpu_model", "llc_bytes", "thp", "compiler",
                "omp_threads", "git_commit", "numpy", "loop_tier"):
        assert key in ledger["host"], key
    from repro.obs import validate_chrome_trace
    assert [name for name, entry in ledger["workloads"].items()
            if entry["gated"]] == [w["name"] for w in spec["workloads"]]
    for entry in ledger["workloads"].values():
        assert set(entry["end_to_end"]) == {"setup_s", "op_ms", "peak_rss_mb"}
        assert entry["ops"]["failed"] == 0
        assert "tracing_overhead" in entry
        assert {"setup", "import", "first_op", "block"} <= set(
            entry["self_times_ms"])
        with open(tmp_path / entry["trace_file"], encoding="utf-8") as f:
            assert validate_chrome_trace(json.load(f)) == []
    gw = ledger["workloads"]["gateway_small"]
    assert {"op", "submit", "wait", "fetch"} <= set(gw["self_times_ms"])
    layers = gw["per_layer"]
    parts = (layers["net.submit_ms"] + layers["net.exec_wait_ms"]
             + layers["net.fetch_ms"])
    assert abs(parts / gw["detail"]["best_block_op_ms"] - 1.0) < 0.05
    assert layers["net.tenant_queued_after"] > 0      # the admission leak
    assert layers["net.http_429"] == 0
    sh = ledger["workloads"]["shards2_151"]["per_layer"]
    assert sh["gpu.parallel.shm_leaked"] == 0
    assert sh["gpu.parallel.fallback_segments"] == 0
    assert sh["gpu.parallel.overlap_shards"] == 2
    split = (sh["gpu.parallel.spawn_s"] + sh["gpu.parallel.loop_s"]
             + sh["gpu.parallel.outside_s"])
    assert abs(split / sh["gpu.parallel.segment_s"] - 1.0) < 0.05
    # the private temp root is gone
    work = os.path.join(REPO_ROOT, ".bench_work")
    assert not os.path.isdir(work) or os.listdir(work) == []


def test_contract_flags_report_exactly_the_named_metrics():
    spec = load_spec()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            RUN + ["--smoke", "--workload", "vgpu_302", "--seed", "3",
                   "--seconds", "0", "--trace", trace],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last["metrics"]) == {m["name"] for m in spec[key]}


def test_failed_check_is_a_failed_op_and_a_nonzero_exit():
    proc = subprocess.run(
        RUN + ["--smoke", "--workload", "vgpu_302", "--perturb-ulp"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    result = _result_lines(proc.stdout)[-1]
    assert result["correct"] is False and result["failed"] >= 1
    assert "curr differs" in proc.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "kernels_302", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert _result_lines(proc.stdout) == []
