"""Serving benchmark + CLIs: deterministic artifacts, smoke exit codes."""

import json

from repro.bench.serve import render_serve, serve_benchmark
from repro.serve.chaos import build_workload as serve_workload


def test_serve_benchmark_is_deterministic():
    a = serve_benchmark(jobs=10, steps=3)
    b = serve_benchmark(jobs=10, steps=3)
    assert a == b


def test_serve_benchmark_artifact_contents():
    stats = serve_benchmark(jobs=12, steps=3)
    assert stats["states"]["DONE"] == 12
    assert stats["jobs_per_sec"] > 0
    assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] > 0
    assert stats["cache"]["compile"]["hits"] > 0
    assert stats["cache"]["result"]["hits"] >= 2      # the workload dups
    assert stats["batches"] >= 1
    assert len(stats["per_job"]) == 12
    assert all(j["state"] == "DONE" for j in stats["per_job"])
    json.dumps(stats)                                 # JSON-able artifact


def test_serve_workload_mix():
    reqs = serve_workload(jobs=12, steps=3)
    assert {r.scheme for r in reqs} == {"fi", "fi_mm", "fd_mm"}
    assert {r.precision for r in reqs} == {"single", "double"}
    assert len({r.priority for r in reqs}) > 3
    fps = [r.fingerprint() for r in reqs]
    assert len(set(fps)) < len(fps)                   # duplicates present


def test_render_serve_text():
    text = render_serve()
    assert "Serving throughput" in text
    assert "jobs/sec" in text and "p95" in text


def test_bench_cli_writes_serve_artifact(tmp_path, capsys):
    from repro.bench.__main__ import main
    out = tmp_path / "serve.json"
    assert main(["serve", "--json", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert stats["states"]["DONE"] == len(stats["per_job"])
    assert "Serving throughput" in capsys.readouterr().out


def test_bench_cli_json_stays_scaling_without_serve(tmp_path):
    from repro.bench.__main__ import main
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and "shards" in rows[0]


def test_serve_smoke_cli(tmp_path, capsys):
    from repro.serve.__main__ import main
    out = tmp_path / "smoke.json"
    rc = main(["--jobs", "6", "--steps", "4", "--pool", "TitanBlack:2",
               "--faults", "--verify", "--json", str(out)])
    assert rc == 0
    stats = json.loads(out.read_text())
    assert stats["verified"] is True and stats["errors"] == []
    assert stats["states"]["DONE"] == 6
    assert "bit-identical" in capsys.readouterr().out
