"""The deterministic service dashboard (snapshot, renderer, validator)."""

import json

from repro.obs import (render_dashboard, service_snapshot,
                       validate_dashboard)
from repro.obs.dashboard import main as dashboard_main
from repro.serve import SimulationService
from repro.serve.chaos import build_workload as build_jobs


def run_service(jobs=5, steps=3, **kw):
    svc = SimulationService(devices="TitanBlack:2", observability=True, **kw)
    for req in build_jobs(jobs, steps):
        svc.submit(req)
    svc.drain()
    return svc


class TestSnapshot:
    def test_shape_and_validity(self):
        svc = run_service()
        snap = service_snapshot(svc, top=3)
        assert validate_dashboard(snap) == []
        assert snap["version"] == 1
        assert len(snap["slowest"]) <= 3
        assert all(r["trace_id"].startswith("t-") for r in snap["slowest"])
        assert len(snap["devices"]) == 2
        for d in snap["devices"]:
            assert 0.0 <= d["utilisation"] <= 1.0
        assert snap["slo"] is not None
        assert snap["timeseries"]["series"]
        assert snap["flight"]["recorded"] > 0

    def test_slowest_sorted_by_latency(self):
        snap = service_snapshot(run_service())
        lats = [r["latency_ms"] for r in snap["slowest"]]
        assert lats == sorted(lats, reverse=True)

    def test_obs_off_panels_null_but_snapshot_valid(self):
        svc = SimulationService(devices="TitanBlack")
        for req in build_jobs(3, 2):
            svc.submit(req)
        svc.drain()
        snap = service_snapshot(svc)
        assert snap["timeseries"] is None and snap["slo"] is None
        assert snap["flight"]["recorded"] > 0     # flight is always on
        assert validate_dashboard(snap) == []

    def test_json_serialisable(self):
        snap = service_snapshot(run_service())
        assert json.loads(json.dumps(snap)) == snap


class TestDeterminism:
    def test_two_fresh_services_identical_snapshot(self):
        a = service_snapshot(run_service())
        b = service_snapshot(run_service())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_render_is_byte_stable(self):
        a = render_dashboard(service_snapshot(run_service()))
        b = render_dashboard(service_snapshot(run_service()))
        assert a == b


class TestRender:
    def test_panels_present(self):
        text = render_dashboard(service_snapshot(run_service()))
        for needle in ("repro serve dashboard", "devices:", "slo:",
                       "slowest traces:", "flight recorder:"):
            assert needle in text
        assert "latency_p95" in text

    def test_obs_off_render(self):
        svc = SimulationService(devices="TitanBlack")
        for req in build_jobs(2, 2):
            svc.submit(req)
        svc.drain()
        assert "(observability off)" in render_dashboard(
            service_snapshot(svc))


class TestValidator:
    def test_catches_missing_keys(self):
        snap = service_snapshot(run_service())
        del snap["devices"]
        assert any("devices" in p for p in validate_dashboard(snap))

    def test_catches_bad_version_and_utilisation(self):
        snap = service_snapshot(run_service())
        snap["version"] = 99
        snap["devices"][0]["utilisation"] = 7.0
        problems = validate_dashboard(snap)
        assert any("version" in p for p in problems)
        assert any("utilisation" in p for p in problems)

    def test_non_dict(self):
        assert validate_dashboard([]) != []


class TestCLI:
    def test_cli_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "dash.json"
        rc = dashboard_main(["--jobs", "4", "--steps", "2",
                             "--json", str(out), "--validate"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_dashboard(doc) == []
        assert "repro serve dashboard" in capsys.readouterr().out

    def test_cli_renders_from_file(self, tmp_path, capsys):
        out = tmp_path / "dash.json"
        assert dashboard_main(["--jobs", "3", "--steps", "2",
                               "--json", str(out)]) == 0
        capsys.readouterr()
        rc = dashboard_main(["--from", str(out), "--validate"])
        assert rc == 0
        assert "slowest traces:" in capsys.readouterr().out
