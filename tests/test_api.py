"""The repro.api session facade: parity with the low-level API, typed
results."""

import numpy as np
import pytest

import repro
from repro import api
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.sim import RoomSimulation, SimConfig


@pytest.fixture
def room():
    return Room(Grid3D(16, 14, 12), DomeRoom())


class TestSessionSimulate:
    def test_defaults_bit_identical_to_roomsimulation(self, room):
        ref = RoomSimulation(SimConfig(room=room, scheme="fi_mm",
                                       backend="virtual_gpu"))
        ref.add_impulse("center")
        ref.run(8)
        res = api.Session().simulate(room, steps=8)
        assert np.array_equal(res.field, ref.curr[:ref._N])
        assert res.time_step == 8
        assert res.kernel_time_ms == ref.modelled_gpu_time_ms
        assert res.halo_time_ms == 0.0
        assert res.devices == ("TitanBlack",)

    def test_multi_device_pool_matches_and_reports_halo(self, room):
        single = api.Session().simulate(room, steps=8)
        multi = api.Session(devices="RadeonR9:2").simulate(room, steps=8)
        assert np.array_equal(multi.field, single.field)
        assert multi.halo_time_ms > 0
        assert multi.devices == ("RadeonR9#0", "RadeonR9#1")

    def test_receivers_and_live_simulation(self, room):
        res = api.Session().simulate(room, steps=5,
                                     receivers={"mic": "center"})
        assert len(res.receivers["mic"]) == 5
        # the attached simulation can keep stepping
        res.simulation.run(3)
        assert res.simulation.time_step == 8

    def test_observability_session_collects_spans(self, room):
        s = api.Session(devices="TitanBlack:2", observability=True)
        s.simulate(room, steps=3)
        assert s.obs is not None
        names = {sp.name for sp in s.obs.tracer.spans}
        assert "sim.run" in names
        assert {sp.attrs.get("shard") for sp in s.obs.tracer.spans
                if sp.name == "gpu.step"} == {0, 1}

    def test_shard_loss_reported_in_result(self, room):
        from repro.gpu import FaultPlan, FaultSpec
        plan = FaultPlan(
            [FaultSpec(kind="device_lost", steps=(3,), max_count=1)], seed=1)
        clean = api.Session(devices="RadeonR9:2").simulate(room, steps=8)
        res = api.Session(devices="RadeonR9:2", resilient=True,
                          faults=plan).simulate(room, steps=8,
                                                checkpoint_interval=2)
        assert np.array_equal(res.field, clean.field)
        # the result names the survivors and records the re-shard
        assert res.devices == ("RadeonR9#1",)
        assert any(o.action == "reshard" for o in res.policy_log)

    def test_keyword_only(self, room):
        with pytest.raises(TypeError):
            api.Session("RadeonR9:2")
        with pytest.raises(TypeError):
            api.Session().simulate(room, 4, "fi_mm")


class TestSessionBenchAndScaling:
    def test_bench_cell(self):
        cell = api.Session(devices="AMD7970").bench(kind="fi_mm",
                                                    size="302", scale=16)
        assert cell.device == "AMD7970"
        assert cell.time_ms > 0 and cell.gelems > 0
        assert cell.workgroup > 0

    def test_scaling_sweep(self):
        cells = api.Session(devices="RadeonR9").scaling(
            mode="strong", shard_counts=(1, 2), scale=16, steps=2)
        assert [c.shards for c in cells] == [1, 2]
        assert cells[0].halo_time_ms == 0.0
        assert cells[1].halo_time_ms > 0.0
        with pytest.raises(ValueError):
            api.Session().scaling(mode="sideways")


class TestRootExports:
    def test_facade_reexported_from_repro(self):
        assert repro.Session is api.Session
        assert repro.SimulationResult is api.SimulationResult
        assert repro.BenchResult is api.BenchResult

    def test_all_names_resolve(self):
        for mod in (repro, api):
            for name in mod.__all__:
                assert getattr(mod, name) is not None
