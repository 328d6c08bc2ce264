"""BENCHMARK.json against the contract it is written to, and against
the runner's own tables."""

import os
import re

from paths import PERF_DIR, REPO_ROOT, load_spec

import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_shape():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json")) < 65536
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["benchmarks/perf"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in spec["command"])
    assert os.path.samefile(os.path.join(REPO_ROOT, spec["command"][-1]),
                            os.path.join(PERF_DIR, "run.py"))


def test_names_charset_and_uniqueness():
    spec = load_spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.match(n) for n in names), [n for n in names
                                               if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_workloads_match_the_runner():
    spec = load_spec()
    assert 2 <= len(spec["workloads"]) <= 8
    gated = [name for name, w in workloads.WORKLOADS.items()
             if "ledger_only" not in w]
    assert [w["name"] for w in spec["workloads"]] == gated
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics():
    spec = load_spec()
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert set(e2e) == {"setup_s", "op_ms", "peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"]
                                          for m in spec["end_to_end"])
