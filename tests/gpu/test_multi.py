"""Multi-device domain decomposition: bit-identity, halo pricing, recovery."""

import numpy as np
import pytest

from repro import obs
from repro.acoustics import lift_programs
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import LEAPFROG
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.lift.codegen.host import compile_host
from repro.lift.codegen.loops import LoopsUnsupported, available_tiers
from repro.gpu import (AMD_HD7970, AMD_R9_295X2, ClInvalidValue, DeviceSpec,
                       FaultPlan, FaultSpec, MultiGPU, NVIDIA_TITAN_BLACK,
                       ShardLost, VirtualGPU, decompose, peer_connected,
                       resolve_device)

from ..listing5 import listing5_problem
from .conftest import step_launches

STEPS = 7
ROT_FI = [LEAPFROG]
#: Listing 5's FD-MM rotations, for the launch-by-launch reference only:
#: ``execute()`` writes the new branch velocity into ``v1_h``, which the
#: host then swaps into ``v2_h``; a pool's step writes it over ``v2_h``
#: and refuses the swap.  ``execute()`` uploads ``v2_h`` and ``v1_h`` to
#: two buffers even where, as ``host_inputs`` binds them, they are one
#: host array
LISTING5_FD = [LEAPFROG, ("v2_h", "v1_h")]


@pytest.fixture(scope="module")
def fi_mm():
    return listing5_problem()


@pytest.fixture(scope="module")
def grid(fi_mm):
    return fi_mm["grid"]


@pytest.fixture(scope="module")
def fd_mm():
    return listing5_problem("fd_mm", branch_seed=8)


class TestDecompose:
    def test_balanced_split_covers_grid(self):
        shards = decompose(10, 168, resolve_device("TitanBlack:4"))
        assert [(s.z0, s.z1) for s in shards] == [(0, 3), (3, 6), (6, 8),
                                                 (8, 10)]
        assert sum(s.n_local for s in shards) == 10 * 168

    def test_more_shards_than_planes_rejected(self):
        with pytest.raises(ClInvalidValue):
            decompose(2, 168, resolve_device("TitanBlack:3"))


class TestResolveDevice:
    def test_none_gives_default_single(self):
        assert resolve_device(None) == (NVIDIA_TITAN_BLACK,)

    def test_spec_passthrough(self):
        assert resolve_device(AMD_HD7970) == (AMD_HD7970,)

    def test_paper_name(self):
        assert resolve_device("AMD7970") == (AMD_HD7970,)

    def test_shard_syntax_builds_same_board_pool(self):
        pool = resolve_device("RadeonR9:2")
        assert [d.name for d in pool] == ["RadeonR9#0", "RadeonR9#1"]
        assert peer_connected(pool[0], pool[1])

    def test_non_bridged_pool_shares_board_but_stages(self):
        pool = resolve_device("TitanBlack:2")
        # no interconnect advertised: halo exchange stages through host
        assert not peer_connected(pool[0], pool[1])

    def test_sequence_flattens(self):
        pool = resolve_device(["AMD7970", NVIDIA_TITAN_BLACK])
        assert [d.name for d in pool] == ["AMD7970", "TitanBlack"]

    def test_errors(self):
        with pytest.raises(ValueError):
            resolve_device("RadeonR9:x")
        with pytest.raises(ValueError):
            resolve_device([])
        with pytest.raises(TypeError):
            resolve_device(42)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_execute_matches_single_device(self, fi_mm, shards):
        """One pool step is one device's one-shot ``execute()``."""
        ref = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"])
        res = MultiGPU(f"RadeonR9:{shards}").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], 1,
            rotations=ROT_FI)
        assert np.array_equal(np.asarray(res.result),
                              np.asarray(ref.result)[:fi_mm["N"]])

    # no rotations: shards step over two time levels, which needs the
    # leapfrog cycle, so the pool refuses at the call
    @pytest.mark.parametrize("shards,rotations",
                             [(2, ROT_FI), (4, ROT_FI), (2, None)],
                             ids=["2", "4", "2-no-rotations"])
    def test_execute_many_fi_mm(self, fi_mm, shards, rotations):
        if rotations is None:
            with pytest.raises(ClInvalidValue, match="leapfrog"):
                MultiGPU(f"RadeonR9:{shards}").execute_many(
                    fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS)
            return
        ref = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), fi_mm["host"],
                            fi_mm["inputs"], fi_mm["sizes"], STEPS, rotations)
        res = MultiGPU(f"RadeonR9:{shards}").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=rotations)
        N = fi_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])
        assert np.array_equal(res.buffers["final:prev1_h"][:N],
                              ref.buffers["final:prev1_h"][:N])

    @pytest.mark.parametrize("shards", [2, 4])
    def test_execute_many_fd_mm_branch_state(self, fd_mm, shards):
        ref = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), fd_mm["host"],
                            fd_mm["inputs"], fd_mm["sizes"], STEPS,
                            LISTING5_FD)
        res = MultiGPU(f"TitanBlack:{shards}").execute_many(
            fd_mm["host"], fd_mm["inputs"], fd_mm["sizes"], STEPS,
            rotations=ROT_FI)
        N = fd_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])
        # v2_h: the velocity the next step reads, on both sides
        for name in ("g1_h", "v2_h"):
            assert np.array_equal(res.buffers[f"final:{name}"],
                                  ref.buffers[f"final:{name}"])

    def test_single_shard_pool_degenerates(self, fi_mm):
        ref = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), fi_mm["host"],
                            fi_mm["inputs"], fi_mm["sizes"], STEPS, ROT_FI)
        res = MultiGPU(("TitanBlack",)).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        N = fi_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])
        assert res.halo_time_ms() == 0.0

    def test_boundaryless_shard_drops_boundary_launch(self, fi_mm, grid):
        # keep only boundary points in the lower half of the grid: the
        # upper shard then has K_local == 0 and must run volume-only
        topo = fi_mm["topo"]
        plane = grid.nx * grid.ny
        half = (grid.nz // 2) * plane
        bidx = topo.boundary_indices
        keep = bidx < half
        assert keep.any() and not keep.all()
        inputs = dict(fi_mm["inputs"])
        inputs["boundaries"] = bidx[keep]
        inputs["materialIdx"] = topo.material[keep]
        sizes = dict(fi_mm["sizes"], K=int(keep.sum()))
        ref = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            fi_mm["host"], inputs, sizes)
        pool = MultiGPU("TitanBlack:2")
        res = pool.execute_many(fi_mm["host"], inputs, sizes, 1,
                                rotations=ROT_FI)
        assert np.array_equal(np.asarray(res.result),
                              np.asarray(ref.result)[:fi_mm["N"]])
        # the upper shard's plan has no boundary launch
        launched = [{e.name for e in ev if e.kind == "kernel"}
                    for ev in res.shard_events]
        assert len(launched[0]) == 2 and len(launched[1]) == 1


class TestHaloPricing:
    def test_halo_time_nonzero_and_separate_from_kernel(self, fi_mm):
        res = MultiGPU("RadeonR9:2").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        assert res.halo_time_ms() > 0
        assert res.kernel_time_ms() > 0
        # halo events are their own kind, never counted as kernel time
        assert all(e.kind == "halo" for e in res.halo_events)
        assert res.halo_bytes > 0

    def test_p2p_cheaper_than_staged(self, fi_mm):
        args = (fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS)
        p2p = MultiGPU("RadeonR9:2").execute_many(*args, rotations=ROT_FI)
        staged = MultiGPU("TitanBlack:2").execute_many(*args,
                                                       rotations=ROT_FI)
        assert p2p.halo_bytes == staged.halo_bytes
        # one hop over the 16 GB/s bridge vs two hops over host PCIe
        assert p2p.halo_time_ms() < staged.halo_time_ms()

    def test_kernel_time_is_critical_path(self, fi_mm):
        res = MultiGPU("RadeonR9:4").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        per = res.per_shard_kernel_time_ms()
        assert len(per) == 4
        assert res.kernel_time_ms() == max(per)


def _sim(scheme, devices=None, steps=6, grid=None, **kw):
    cfg = SimConfig(room=Room(grid or Grid3D(14, 12, 10), DomeRoom()),
                    scheme=scheme, backend="virtual_gpu", devices=devices,
                    **kw)
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.run(steps)
    return sim


class TestSimIntegration:
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    @pytest.mark.parametrize("devices", ["RadeonR9:2", "TitanBlack:4"])
    def test_sharded_sim_bit_identical(self, scheme, devices):
        ref = _sim(scheme)
        m = _sim(scheme, devices=devices)
        assert np.array_equal(m.curr, ref.curr)
        assert np.array_equal(m.g1, ref.g1)
        assert m.modelled_halo_time_ms > 0

    def test_shard_loss_recovers_bit_identically(self):
        faults = FaultPlan(
            [FaultSpec(kind="device_lost", steps=(3,), max_count=1)], seed=1)
        ref = _sim("fi_mm", devices="TitanBlack:2", steps=8)
        m = _sim("fi_mm", devices="TitanBlack:2", steps=8, faults=faults,
                 resilient=True, checkpoint_interval=2)
        assert np.array_equal(m.curr, ref.curr)
        assert m.time_step == ref.time_step == 8
        # the dead device was dropped from the pool
        assert len(m._gpu.devices) == 1
        assert len(m.devices) == 1
        assert faults.injected_kinds() == {"device_lost"}
        # the re-shard is recorded and pre-loss entries survive the
        # executor swap
        reshards = [o for o in m.policy_log if o.action == "reshard"]
        assert len(reshards) == 1
        assert reshards[0].error == "CL_DEVICE_LOST"
        assert reshards[0].device == "TitanBlack#0"

    def test_shard_loss_without_checkpoint_raises(self):
        faults = FaultPlan(
            [FaultSpec(kind="device_lost", steps=(2,), max_count=1)], seed=1)
        cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                        scheme="fi_mm", backend="virtual_gpu",
                        devices="TitanBlack:2", faults=faults, resilient=True)
        sim = RoomSimulation(cfg)
        sim.add_impulse("center")
        # step() bypasses run()'s checkpoint bootstrap: the loss escalates
        with pytest.raises(ShardLost):
            for _ in range(6):
                sim.step()

    def test_without_device_keeps_pool_config(self):
        faults = FaultPlan([], seed=1)
        m = MultiGPU("RadeonR9:3", faults=faults, resilient=True,
                     parallel=True)
        survivors = m.without_device(1)
        assert [d.name for d in survivors.devices] == ["RadeonR9#0",
                                                       "RadeonR9#2"]
        assert survivors.faults is faults
        assert survivors.resilient and survivors.parallel
        assert [o.action for o in survivors.policy_logs()] == ["reshard"]
        with pytest.raises(ClInvalidValue):
            MultiGPU(("TitanBlack",)).without_device(0)


class TestResultIsTheNewestLevel:
    """``execute_many(...).result`` is the level the last step wrote —
    ``final:prev1_h`` after the rotation — not the scratch level the
    next step would overwrite (nor, with no step, a buffer never
    written)."""

    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("devices", ["TitanBlack", "TitanBlack:2"])
    def test_result_is_final_prev1(self, fi_mm, devices, steps):
        gpu = (VirtualGPU(NVIDIA_TITAN_BLACK) if devices == "TitanBlack"
               else MultiGPU(devices))
        res = gpu.execute_many(fi_mm["host"], fi_mm["inputs"],
                               fi_mm["sizes"], steps, rotations=ROT_FI)
        N = fi_mm["N"]
        newest = np.asarray(res.buffers["final:prev1_h"])[:N]
        assert np.array_equal(np.asarray(res.result)[:N], newest)
        if steps == 0:
            assert np.array_equal(newest, fi_mm["inputs"]["prev1_h"][:N])
        else:
            assert not np.array_equal(
                newest, np.asarray(res.buffers["final:prev2_h"])[:N])


class TestPoolRefusals:
    def test_a_plan_the_step_refuses_raises_at_the_call(self, fi_mm,
                                                        monkeypatch):
        """A sweep naming its oldest level other than ``prev`` cannot
        step over two levels: one device and both pools refuse before
        anything runs (the multi-process pool before it starts a
        worker)."""
        original = lift_programs.volume_kernel

        def volume_kernel(dtype="double"):
            p = original(dtype)
            p.kernel.params[0].name = "older"
            return p

        monkeypatch.setattr(lift_programs, "volume_kernel", volume_kernel)
        hp = lift_programs.two_kernel_host("fi_mm")
        host = compile_host(hp.program, hp.name)
        monkeypatch.undo()
        for gpu in (VirtualGPU(NVIDIA_TITAN_BLACK), MultiGPU("TitanBlack:2"),
                    MultiGPU("TitanBlack:2", parallel=True)):
            with pytest.raises(LoopsUnsupported, match="older|.prev."):
                gpu.execute_many(host, fi_mm["inputs"], fi_mm["sizes"],
                                 STEPS, rotations=ROT_FI)


class TestPoolLoopFaults:
    def test_a_launch_site_fault_loses_the_shard_at_its_step(self, fi_mm):
        """The in-process pool loop consults the fault plan at every
        launch site it records, before the step stores anything."""
        faults = FaultPlan([FaultSpec("device_lost", steps=(2,))])
        pool = MultiGPU("TitanBlack:2", faults=faults)
        with obs.observe() as o, pytest.raises(ShardLost) as err:
            pool.execute_many(fi_mm["host"], fi_mm["inputs"],
                              fi_mm["sizes"], STEPS, rotations=ROT_FI)
        obs.disable()
        assert err.value.shard == 0 and err.value.context["step"] == 2
        assert [(r.kind, r.step) for r in faults.records] == [
            ("device_lost", 2)]
        # shard 0 modelled no launch of step 2
        lost = [s for s in o.tracer.find("gpu.step", cat="step")
                if s.attrs.get("shard") == 0 and s.attrs["step"] == 2]
        assert all(k.cat != "kernel"
                   for s in lost for k in o.tracer.children_of(s))


class TestShardStepSpans:
    def test_every_shard_step_names_its_tier(self, fd_mm):
        with obs.observe() as o:
            MultiGPU("TitanBlack:2").execute_many(
                fd_mm["host"], fd_mm["inputs"], fd_mm["sizes"], 3,
                rotations=ROT_FI)
        obs.disable()
        steps = o.tracer.find("gpu.step", cat="step")
        assert sorted((s.attrs["shard"], s.attrs["step"])
                      for s in steps) == [(i, t) for i in (0, 1)
                                          for t in range(3)]
        tiers = {(s.attrs["tier"], s.attrs["cc_rung"]) for s in steps}
        assert len(tiers) == 1
        tier, rung = tiers.pop()
        assert tier in {*available_tiers(), "numpy"}
        assert (rung is not None) == (tier == "cc")
