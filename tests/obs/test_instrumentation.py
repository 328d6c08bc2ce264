"""End-to-end instrumentation: spans, metrics, and exports from real runs.

These tests exercise the acceptance criteria of the observability layer:
a fault-injected execution produces a Chrome trace whose spans nest
(compile → execute → launch → retry), a Prometheus export with kernel-time
histograms / transfer-byte counters / retry counters, and — with no
session active — the instrumented code paths change nothing.
"""

import numpy as np
import pytest

from repro import obs
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import LEAPFROG, compiled_host
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.gpu import (FaultPlan, FaultSpec, NVIDIA_TITAN_BLACK,
                       ResilientGPU, RetryPolicy, VirtualGPU,
                       transfer_time_ms)
from repro.obs import (chrome_trace, prometheus_text, validate_chrome_trace,
                       validate_prometheus_text, kernel_report)

from ..listing5 import listing5_problem


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def problem():
    return listing5_problem()


def make_sim(**kw):
    return RoomSimulation(SimConfig(
        room=Room(Grid3D(14, 12, 10), DomeRoom()), scheme="fi_mm",
        backend="virtual_gpu", **kw))


class TestDisabledByDefault:
    def test_no_session_active(self):
        assert obs.get() is None
        assert obs.span("x") is obs.span("y")   # the shared no-op context

    def test_results_bit_identical_with_and_without_tracing(self):
        def run():
            sim = make_sim()
            sim.add_impulse("center")
            sim.add_receiver("mic", "center")
            sim.run(4)
            return sim.receiver_signal("mic"), sim.modelled_gpu_time_ms

        base_sig, base_ms = run()
        with obs.observe():
            traced_sig, traced_ms = run()
        again_sig, again_ms = run()
        np.testing.assert_array_equal(base_sig, traced_sig)
        np.testing.assert_array_equal(base_sig, again_sig)
        assert base_ms == traced_ms == again_ms


class TestCompileSpans:
    def test_host_compilation_phases_nest(self):
        with obs.observe() as o:
            compiled_host("fi_mm", "double", 3)
        host = o.tracer.find("lift.compile_host")
        assert len(host) == 1
        kernels = o.tracer.find("lift.compile_kernel")
        assert len(kernels) == 2               # volume + boundary
        assert all(k.parent_id == host[0].span_id for k in kernels)
        phases = {s.name for s in o.tracer.descendants_of(kernels[0])}
        assert phases == {"lift.rewrite", "lift.type_inference",
                          "lift.memory_alloc", "lift.emit"}
        # compile spans are wall-timed: they advanced the modelled clock
        assert host[0].duration_ms > 0.0


class TestExecuteSpans:
    def test_execute_contains_transfers_and_launches(self, problem):
        with obs.observe() as o:
            gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
            res = gpu.execute(problem["host"], problem["inputs"],
                              problem["sizes"])
        ex = o.tracer.find("gpu.execute", cat="gpu")
        assert len(ex) == 1
        kids = o.tracer.descendants_of(ex[0])
        cats = {s.cat for s in kids}
        assert {"alloc", "h2d", "kernel", "d2h"} <= cats
        kernels = [s for s in kids if s.cat == "kernel"]
        assert {s.name for s in kernels} == {"volume_handling_kernel",
                                             "boundary_handling_kernel"}
        for s in kernels:
            for key in ("occupancy", "achieved_gbs", "roofline_gbs",
                        "achieved_gflops", "peak_gflops", "workgroup"):
                assert key in s.attrs, key
        # the trace agrees with the profiling events
        assert sum(s.duration_ms for s in kernels) == pytest.approx(
            res.kernel_time_ms())
        # metrics mirrored the same activity
        h = o.metrics.get("repro_gpu_kernel_time_ms")
        assert h.total_count() == 2
        transfers = o.metrics.get("repro_gpu_transfer_bytes_total")
        assert transfers.value(direction="h2d") > 0
        assert transfers.value(direction="d2h") > 0
        assert o.metrics.get("repro_gpu_mem_in_use_bytes").value(
            device="TitanBlack") > 0

    def test_h2d_durations_priced_by_the_shared_transfer_model(self, problem):
        with obs.observe() as o:
            VirtualGPU(NVIDIA_TITAN_BLACK).execute(
                problem["host"], problem["inputs"], problem["sizes"])
        for s in o.tracer.spans:
            if s.cat == "h2d":
                assert s.duration_ms == pytest.approx(transfer_time_ms(
                    s.attrs["bytes"], NVIDIA_TITAN_BLACK))

    def test_execute_many_has_per_step_spans(self, problem):
        with obs.observe() as o:
            VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                problem["host"], problem["inputs"], problem["sizes"],
                steps=3, rotations=[LEAPFROG])
        many = o.tracer.find("gpu.execute_many")
        assert len(many) == 1
        steps = o.tracer.find("gpu.step", cat="step")
        assert [s.attrs["step"] for s in steps] == [0, 1, 2]
        for s in steps:
            assert s.parent_id == many[0].span_id
            assert {k.cat for k in o.tracer.children_of(s)} == {"kernel"}
            assert "tier" in s.attrs and "cc_rung" in s.attrs


class TestFaultTrace:
    """The acceptance scenario: fault-injected run, full export chain."""

    def run_faulted(self, problem):
        plan = FaultPlan([FaultSpec("launch_abort", steps=(0,))], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(backoff_ms=0.25))
        return gpu, gpu.execute(problem["host"], problem["inputs"],
                                problem["sizes"], fault_step=0)

    def test_retry_spans_and_counters(self, problem):
        with obs.observe() as o:
            gpu, res = self.run_faulted(problem)
        attempts = o.tracer.find("resilient.attempt")
        assert [a.attrs["outcome"] for a in attempts] == [
            "failed", "failed", "ok"]
        assert attempts[0].attrs["error"] == "CL_OUT_OF_RESOURCES"
        assert attempts[0].attrs["injected"] is True
        # each attempt span contains its own gpu.execute child
        for a in attempts:
            assert "gpu.execute" in {s.name for s in o.tracer.children_of(a)}
        backoffs = o.tracer.find("retry:", cat="backoff")
        assert len(backoffs) == 2
        assert o.metrics.get("repro_gpu_retries_total").value(
            error="CL_OUT_OF_RESOURCES") == 2
        recov = o.metrics.get("repro_gpu_recovery_actions_total")
        assert recov.value(action="retry", error="CL_OUT_OF_RESOURCES") == 2
        assert recov.value(action="recovered", error="none") == 1

    def test_failed_attempts_not_double_counted(self, problem):
        with obs.observe():
            gpu, res = self.run_faulted(problem)
        clean = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            problem["host"], problem["inputs"], problem["sizes"])
        assert res.kernel_time_ms() == clean.kernel_time_ms()
        # prefix filters only see the winning attempt's launches too
        assert res.kernel_time_ms("volume") == clean.kernel_time_ms("volume")
        # ... but the discarded work is preserved and auditable
        assert res.failed_time_ms() > 0
        assert any(e.kind == "failed_kernel" and
                   e.name.startswith("attempt") for e in res.events)

    def test_report_counts_only_winning_launches(self, problem):
        with obs.observe() as o:
            self.run_faulted(problem)
        rows = kernel_report(o.tracer)
        assert all(r.launches == 1 for r in rows)   # one successful run
        # the discarded launches stay on the timeline, relabelled
        assert any(s.cat == "failed_kernel" for s in o.tracer.spans)

    def test_exports_are_schema_valid_and_nested(self, problem):
        with obs.observe() as o:
            self.run_faulted(problem)
        doc = chrome_trace(o.tracer)
        assert validate_chrome_trace(doc) == []
        text = prometheus_text(o.metrics)
        assert validate_prometheus_text(text) == []
        assert "repro_gpu_kernel_time_ms_bucket" in text
        assert "repro_gpu_transfer_bytes_total" in text
        assert "repro_gpu_retries_total" in text

    def test_fault_injected_execute_many_full_chain(self, problem):
        """The acceptance scenario end to end: compilation + a
        fault-injected execute_many under one session → a nested Chrome
        trace and a Prometheus export with all three metric families."""
        plan = FaultPlan([FaultSpec("launch_abort", steps=(1,))], seed=2)
        with obs.observe() as o:
            host = compiled_host("fi_mm", "double", 3)
            gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                               RetryPolicy(backoff_ms=0.1))
            res = gpu.execute_many(
                host, problem["inputs"], problem["sizes"], steps=3,
                rotations=[LEAPFROG])
        # every layer appears: compile → execute_many → step → launch → retry
        names = {s.name for s in o.tracer.spans}
        assert {"lift.compile_host", "lift.compile_kernel",
                "resilient.attempt", "gpu.execute_many", "gpu.step",
                "volume_handling_kernel"} <= names
        assert any(n.startswith("retry:") for n in names)
        # the failed attempt's partial step timeline was preserved
        assert res.failed_time_ms() > 0
        doc = chrome_trace(o.tracer)
        assert validate_chrome_trace(doc) == []
        text = prometheus_text(o.metrics)
        assert validate_prometheus_text(text) == []
        assert "repro_gpu_kernel_time_ms_bucket" in text
        assert "repro_gpu_transfer_bytes_total" in text
        assert o.metrics.get("repro_gpu_retries_total").total() >= 1


class TestSimulationSpans:
    def test_step_spans_nest_down_to_launches(self):
        with obs.observe() as o:
            sim = make_sim()
            sim.add_impulse("center")
            sim.run(2)
        runs = o.tracer.find("sim.run")
        steps = o.tracer.find("sim.step")
        assert len(runs) == 1 and len(steps) == 2
        for s in steps:
            assert s.parent_id == runs[0].span_id
            names = {d.name for d in o.tracer.descendants_of(s)}
            # the default path is device-resident: launches only
            assert "gpu.step" in names and "gpu.execute" not in names
            assert "volume_handling_kernel" in names
        assert o.metrics.get("repro_sim_steps_total").value(
            scheme="fi_mm", backend="virtual_gpu") == 2

    def test_one_shot_step_spans_nest_down_to_launches(self):
        # a one-shot execute() runs the launches one by one: each call's
        # span holds its own allocations, uploads, kernels and read-back,
        # and every kernel names the tier and cc rung it ran on
        from repro.lift.codegen.loops import available_tiers
        sim = make_sim()
        sim.add_impulse("center")
        gpu = VirtualGPU(sim.devices[0])
        with obs.observe() as o:
            for step in range(2):
                gpu.execute(sim._host_program, *sim._vgpu_io(),
                            fault_step=step)
        runs = o.tracer.find("gpu.execute")
        assert len(runs) == 2
        for s in runs:
            below = o.tracer.descendants_of(s)
            names = {d.name for d in below}
            assert "gpu.step" not in names
            assert {"volume_handling_kernel",
                    "boundary_handling_kernel"} <= names
            # every call allocates, uploads and reads back again
            assert {"alloc", "h2d", "d2h"} <= {d.cat for d in below}
            kernels = [d for d in below if d.cat == "kernel"]
            assert len(kernels) == 2
            for k in kernels:
                assert k.attrs["tier"] in {*available_tiers(), "numpy"}
                assert ((k.attrs["cc_rung"] is not None)
                        == (k.attrs["tier"] == "cc"))

    def test_seeded_fault_reaches_policy_log_and_metrics(self):
        plan = FaultPlan([FaultSpec("launch_abort", steps=(1,))], seed=3)
        with obs.observe() as o:
            sim = make_sim(faults=plan, resilient=True)
            sim.add_impulse("center")
            sim.run(3)
        actions = [p.action for p in sim.policy_log]
        assert "retry" in actions and "recovered" in actions
        assert o.metrics.get("repro_gpu_retries_total").total() >= 1
        # the retry spans sit under the step in which the fault fired
        step1 = [s for s in o.tracer.find("sim.step")
                 if s.attrs["step"] == 1][0]
        descendants = {d.name for d in o.tracer.descendants_of(step1)}
        assert "resilient.attempt" in descendants
        assert any(n.startswith("retry:") for n in descendants)

    def test_health_monitor_metrics(self):
        with obs.observe() as o:
            sim = make_sim(health_interval=1)
            sim.add_impulse("center")
            sim.run(3)
        assert o.metrics.get("repro_sim_health_checks_total").total() == 3
        assert o.metrics.get("repro_sim_field_energy").value(
            scheme="fi_mm") > 0


class TestReport:
    def test_rows_aggregate_launches(self, problem):
        with obs.observe() as o:
            VirtualGPU(NVIDIA_TITAN_BLACK).execute(
                problem["host"], problem["inputs"], problem["sizes"])
        rows = kernel_report(o.tracer)
        assert {r.kernel for r in rows} == {"volume_handling_kernel",
                                            "boundary_handling_kernel"}
        for r in rows:
            assert r.device == "TitanBlack" and r.launches == 1
            assert 0 < r.achieved_gbs and 0 < r.roofline_gbs
            assert 0 <= r.pct_roofline <= 100
        assert "TitanBlack" in o.report()


class TestBenchTelemetry:
    def test_modelled_time_emits_cell_telemetry(self):
        from repro.bench.harness import modelled_time
        from repro.bench.rooms import room_bundle
        bundle = room_bundle("302", "dome", scale=4)
        with obs.observe() as o:
            t1 = modelled_time("fi_mm", "double", "LIFT", "TitanBlack", bundle)
        t2 = modelled_time("fi_mm", "double", "LIFT", "TitanBlack", bundle)
        assert t1.time_ms == t2.time_ms      # telemetry never perturbs
        cells = o.tracer.find("bench:", cat="bench")
        assert len(cells) == 1 and cells[0].attrs["impl"] == "LIFT"
        assert o.metrics.get("repro_bench_cells_total").value(
            kind="fi_mm", impl="LIFT") == 1
        assert o.metrics.get("repro_bench_cell_time_ms").count(
            device="TitanBlack", precision="double") == 1

    def test_sweep_records_failures(self):
        from repro.bench.harness import fault_tolerant_sweep
        from repro.gpu.errors import ClDeviceNotAvailable

        def compute(key):
            if key == "bad":
                raise ClDeviceNotAvailable("gone")
            return key

        with obs.observe() as o:
            cells = fault_tolerant_sweep(["a", "bad", "b"], compute,
                                         max_attempts=2)
        assert [c.ok for c in cells] == [True, False, True]
        assert len(o.tracer.find("bench.sweep")) == 1
        assert o.metrics.get("repro_bench_cell_failures_total").total() == 1
        g = o.metrics.get("repro_bench_sweep_cells")
        assert g.value(status="ok") == 2 and g.value(status="failed") == 1


class TestProfilingEventTimestamps:
    def test_events_carry_modelled_timestamps(self, problem):
        res = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            problem["host"], problem["inputs"], problem["sizes"])
        starts = [e.start_ms for e in res.events]
        assert starts == sorted(starts)
        for e in res.events:
            assert e.end_ms == pytest.approx(e.start_ms + e.duration_ms)

    def test_pcie_bandwidth_single_source_of_truth(self):
        assert NVIDIA_TITAN_BLACK.pcie_bandwidth == pytest.approx(
            NVIDIA_TITAN_BLACK.pcie_bandwidth_gbs * 1e9)
        assert transfer_time_ms(12e9, NVIDIA_TITAN_BLACK) == pytest.approx(
            1e3 * 12e9 / NVIDIA_TITAN_BLACK.pcie_bandwidth)


class TestCli:
    def test_cli_smoke_with_fault_and_validation(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        rc = main(["--steps", "3", "--fault", "launch_abort:1", "--validate",
                   "--trace", str(trace), "--metrics", str(prom)])
        assert rc == 0
        assert trace.exists() and prom.exists()
        out = capsys.readouterr().out
        assert "volume_handling_kernel" in out
        assert "repro_gpu_retries_total" in prom.read_text()
        assert obs.get() is None              # CLI cleans up its session
