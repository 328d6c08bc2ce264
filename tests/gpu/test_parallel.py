"""Multi-process shard executor: bit-identity, overlap, dead-worker recovery.

Almost every test here runs real OS processes (spawn start method) — the
fixtures reuse the small grid of ``test_multi`` so each case stays in
the seconds range.  ``TestHostProgramPickles`` checks, in-process, the
round trip that hands each worker its host program.
"""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (LEAPFROG, compiled_host,
                                           two_kernel_host)
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.lift.codegen.host import Launch, compile_host
from repro.lift.codegen.loops import available_tiers
from repro.gpu import (ClInvalidValue, MultiGPU, NVIDIA_TITAN_BLACK,
                       ShardLost, VirtualGPU, clear_kernel_caches)

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


def _ref(case, rotations):
    return step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), case["host"],
                         case["inputs"], case["sizes"], STEPS, rotations)


class TestParallelBitIdentity:
    @pytest.mark.parametrize("shards,rotations",
                             [(2, ROT_FI), (3, ROT_FI), (2, None)],
                             ids=["2", "3", "2-no-rotations"])
    def test_fi_mm_matches_single_and_serial(self, fi_mm, shards, rotations):
        if rotations is None:
            # shards step over two time levels, which needs the leapfrog
            # cycle: refused at the call, before any worker starts
            with pytest.raises(ClInvalidValue, match="leapfrog"):
                MultiGPU(f"TitanBlack:{shards}", parallel=True).execute_many(
                    fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS)
            return
        ref = _ref(fi_mm, rotations)
        serial = MultiGPU(f"TitanBlack:{shards}").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=rotations)
        par = MultiGPU(f"TitanBlack:{shards}", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=rotations)
        N = fi_mm["N"]
        assert np.array_equal(par.result[:N], np.asarray(ref.result)[:N])
        assert np.array_equal(par.buffers["final:prev1_h"][:N],
                              serial.buffers["final:prev1_h"][:N])
        assert par.overlap is not None
        assert serial.overlap is None

    def test_fd_mm_branch_state_matches(self, fd_mm):
        ref = _ref(fd_mm, LISTING5_FD)
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fd_mm["host"], fd_mm["inputs"], fd_mm["sizes"], STEPS,
            rotations=ROT_FI)
        N = fd_mm["N"]
        assert np.array_equal(par.result[:N], np.asarray(ref.result)[:N])
        # v2_h: the velocity the next step reads, on both sides
        for name in ("g1_h", "v2_h"):
            assert np.array_equal(par.buffers[f"final:{name}"],
                                  ref.buffers[f"final:{name}"])

    def test_workers_run_the_handed_program(self, fi_mm):
        # built by compile_host directly, not by any program builder the
        # workers could rebuild it from
        host = compile_host(two_kernel_host("fi_mm", "double").program,
                            "handed")
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            host, fi_mm["inputs"], fi_mm["sizes"], STEPS, rotations=ROT_FI)
        ref = _ref(fi_mm, ROT_FI)
        N = fi_mm["N"]
        assert par.overlap["executor"] == "parallel"
        assert np.array_equal(par.result[:N], np.asarray(ref.result)[:N])
        launched = {e.name for ev in par.shard_events for e in ev
                    if e.kind == "kernel"}
        assert launched == {op.kernel.name for op in host.plan.ops
                            if isinstance(op, Launch)}


class TestHostProgramPickles:
    """What a worker is handed: a host program after a pickle round trip
    runs the same bits and prices the same modelled clock.  The kernel
    caches are cleared before each run, so the copy compiles its own
    kernels (as a fresh worker process does) instead of reusing the
    original's."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_round_trip_executes_identically(self, scheme, precision):
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(14, 12, 10), DomeRoom()), scheme=scheme,
            backend="virtual_gpu", precision=precision))
        sim.add_impulse("center")
        host = compiled_host(scheme, precision, 3)
        copy = pickle.loads(pickle.dumps(host))
        runs = []
        for prog in (host, copy):
            clear_kernel_caches()
            runs.append(VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                prog, *sim._vgpu_io(), 5,
                rotations=ROT_FI))
        ref, got = runs
        assert np.array_equal(np.asarray(got.result), np.asarray(ref.result))
        assert got.buffers.keys() == ref.buffers.keys()
        for name, arr in ref.buffers.items():
            assert np.array_equal(got.buffers[name], arr), name
        assert got.kernel_time_ms() == ref.kernel_time_ms()


class TestOverlapReport:
    def test_interior_boundary_split_and_model(self, fi_mm, grid):
        par = MultiGPU("TitanBlack:2", parallel=True)
        res = par.execute_many(fi_mm["host"], fi_mm["inputs"],
                               fi_mm["sizes"], STEPS, rotations=ROT_FI)
        ov = res.overlap
        assert ov["executor"] == "parallel"
        assert ov["shards"] == 2 and ov["steps"] == STEPS
        plane = grid.nx * grid.ny
        for p in ov["per_shard"]:
            # the footprint comes from the kernel's own shift-op IR: one
            # z-plane on each side for the 7-point SLF stencil
            assert p["mode"] == "overlap"
            assert p["footprint"] == (plane, plane)
            assert p["interior_model_ms"] > 0
            assert p["boundary_model_ms"] > 0
            assert p["hidden_model_ms"] + p["exposed_model_ms"] == \
                pytest.approx(p["halo_model_ms"])
        m = ov["modelled"]
        assert m["step_ms"] <= m["bsp_step_ms"]
        assert 0.0 <= m["hidden_fraction"] <= 1.0
        assert m["hidden_ms"] > 0
        meas = ov["measured"]
        assert meas["wall_total_s"] > meas["loop_wall_s"] > 0
        assert 0.0 <= meas["hidden_fraction"] <= 1.0

    def test_halo_pricing_matches_worker_schedule(self, fi_mm):
        # steps-1 exchange phases: the first step consumes the pre-filled
        # halos
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        serial = MultiGPU("TitanBlack:2").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        assert par.halo_time_ms() == pytest.approx(
            serial.halo_time_ms() * (STEPS - 1) / STEPS)
        assert all(e.kind == "halo" for e in par.halo_events)


class TestFallbacks:
    def test_the_in_process_loop_samples_receivers(self, fi_mm, grid):
        """Both executors sample receivers, at the same points."""
        loop = MultiGPU("TitanBlack:2")
        assert loop._parallel_eligible() == "parallel=False"
        mics = {"lo": 3 * grid.nx * grid.ny + 5,
                "hi": 8 * grid.nx * grid.ny + 5}
        got, par = (MultiGPU("TitanBlack:2", parallel=p).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI, receivers=mics) for p in (False, True))
        assert got.overlap is None and par.overlap is not None
        for name in mics:
            assert len(got.receivers[name]) == STEPS
            assert np.array_equal(got.receivers[name], par.receivers[name])

    def test_single_shard_degenerates(self, fi_mm):
        par = MultiGPU(("TitanBlack",), parallel=True)
        assert par._parallel_eligible() == "single_shard"
        res = par.execute_many(fi_mm["host"], fi_mm["inputs"],
                               fi_mm["sizes"], STEPS, rotations=ROT_FI)
        ref = _ref(fi_mm, ROT_FI)
        N = fi_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])


class TestReceivers:
    def test_in_worker_sampling_matches_per_step(self, fi_mm, grid):
        # one receiver per shard's slab
        lo_idx = 3 * grid.nx * grid.ny + 5
        hi_idx = 8 * grid.nx * grid.ny + 5
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI, receivers={"lo": lo_idx, "hi": hi_idx})
        # per-step reference: run serially, sampling after each step
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                  for k, v in fi_mm["inputs"].items()}
        expect = {"lo": [], "hi": []}
        for _ in range(STEPS):
            res = gpu.execute(fi_mm["host"], inputs, fi_mm["sizes"])
            nxt = np.asarray(res.result)
            prev1 = inputs["prev1_h"].copy()
            inputs["prev2_h"][:] = prev1
            inputs["prev1_h"][:len(nxt)] = nxt
            expect["lo"].append(inputs["prev1_h"][lo_idx])
            expect["hi"].append(inputs["prev1_h"][hi_idx])
        got = par.receivers
        assert np.array_equal(got["lo"], np.asarray(expect["lo"]))
        assert np.array_equal(got["hi"], np.asarray(expect["hi"]))


class TestDeadWorkerRecovery:
    def test_killed_worker_raises_shardlost(self, fi_mm):
        par = MultiGPU("TitanBlack:2", parallel=True)
        par._test_kill = {1: 3}
        with pytest.raises(ShardLost) as err:
            par.execute_many(fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"],
                             STEPS, rotations=ROT_FI)
        assert err.value.shard == 1

    def test_without_device_stays_parallel(self, fi_mm):
        par = MultiGPU("TitanBlack:3", parallel=True)
        par._test_kill = {0: 1}
        survivors = par.without_device(0)
        assert survivors.parallel
        assert survivors._test_kill is None  # the kill knob does not carry
        assert len(survivors.devices) == 2
        res = survivors.execute_many(fi_mm["host"], fi_mm["inputs"],
                                     fi_mm["sizes"], STEPS,
                                     rotations=ROT_FI)
        ref = _ref(fi_mm, ROT_FI)
        N = fi_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])
        assert res.overlap["executor"] == "parallel"


def _sim(scheme, devices=None, steps=6, **kw):
    cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                    scheme=scheme, backend="virtual_gpu", devices=devices,
                    **kw)
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    sim.run(steps)
    return sim


class TestSimParallel:
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_bulk_parallel_bit_identical(self, scheme):
        ref = _sim(scheme)
        par = _sim(scheme, devices="TitanBlack:2", parallel=True)
        assert np.array_equal(par.curr, ref.curr)
        assert np.array_equal(par.prev, ref.prev)
        assert np.array_equal(par.g1, ref.g1)
        assert np.array_equal(par.v, ref.v)
        assert np.array_equal(par.receiver_signal("mic"),
                              ref.receiver_signal("mic"))
        assert par.time_step == ref.time_step
        assert par.last_overlap["executor"] == "parallel"
        assert all(p["mode"] == "overlap"
                   for p in par.last_overlap["per_shard"])

    def test_single_precision_bit_identical(self):
        ref = _sim("fi_mm", precision="single")
        par = _sim("fi_mm", devices="TitanBlack:2", parallel=True,
                   precision="single")
        assert par.curr.dtype == np.float32
        assert np.array_equal(par.curr, ref.curr)

    def test_segments_respect_periodic_hooks(self):
        ref = _sim("fi_mm", steps=8, checkpoint_interval=3,
                   health_interval=2)
        par = _sim("fi_mm", devices="TitanBlack:2", parallel=True, steps=8,
                   checkpoint_interval=3, health_interval=2)
        assert np.array_equal(par.curr, ref.curr)
        assert (par.last_checkpoint.time_step
                == ref.last_checkpoint.time_step == 6)

    def test_segments_count_simulation_steps(self):
        """A run in 3-step segments numbers its steps from each
        segment's first: the halo events of 6 steps are at steps 1, 2,
        4 and 5 (a segment's first step consumes the pre-filled halos),
        and ``_test_kill`` names a simulation step, so a kill at step 4
        fires in the second segment, which replays from step 3."""
        ref = _sim("fi_mm", steps=6)
        cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                        scheme="fi_mm", backend="virtual_gpu",
                        devices="TitanBlack:2", parallel=True,
                        checkpoint_interval=3)
        sim = RoomSimulation(cfg)
        sim.add_impulse("center")
        try:
            with obs.observe() as o:
                sim.run(6)
        finally:
            obs.disable()
        halos = o.tracer.find("halo:", cat="halo")
        assert sorted({h.attrs["step"] for h in halos}) == [1, 2, 4, 5]
        assert len(halos) == 2 * 4           # both directions each step
        assert np.array_equal(sim.curr, ref.curr)

        killed = RoomSimulation(cfg)
        killed.add_impulse("center")
        killed._gpu._test_kill = {1: 4}
        killed.run(6)
        assert len(killed.devices) == 1      # the kill fired ...
        assert [p.detail for p in killed.policy_log
                if p.action == "reshard"]    # ... in segment two
        assert np.array_equal(killed.curr, ref.curr)

    def test_killed_shard_process_recovers_bit_identically(self):
        ref = _sim("fi_mm", steps=8)
        cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                        scheme="fi_mm", backend="virtual_gpu",
                        devices="TitanBlack:2", parallel=True,
                        checkpoint_interval=2)
        sim = RoomSimulation(cfg)
        sim.add_impulse("center")
        sim.add_receiver("mic", (3, 3, 3))
        # worker 1 SIGKILLs itself at step 1, in the first bulk segment
        sim._gpu._test_kill = {1: 1}
        sim.run(8)
        assert np.array_equal(sim.curr, ref.curr)
        assert sim.time_step == 8
        # the dead worker's device left the pool; the survivor pool keeps
        # ``parallel`` (it just degenerates to the in-process loop at one
        # shard)
        assert sim._gpu.parallel
        assert sim._path == "pool-loop"
        assert len(sim.devices) == 1


class TestStepReport:
    def test_every_shard_reports_its_step_tier(self, fi_mm):
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], 3,
            rotations=ROT_FI)
        per = par.overlap["per_shard"]
        assert len(per) == 2
        for p in per:
            assert p["tier"] in {*available_tiers(), "numpy"}
            assert (p["cc_rung"] is not None) == (p["tier"] == "cc")
            # a compiled step overlaps; whole arrays cannot be split
            assert p["mode"] == ("bsp" if p["tier"] == "numpy"
                                 else "overlap")

    def test_a_segment_names_the_shards_tier(self, grid):
        sim = RoomSimulation(SimConfig(
            room=Room(grid, DomeRoom()), scheme="fd_mm",
            backend="virtual_gpu", devices="TitanBlack:2", parallel=True))
        sim.add_impulse("center")
        try:
            with obs.observe() as o:
                sim.run(3)
        finally:
            obs.disable()
        segments = o.tracer.find("sim.segment", cat="sim")
        assert len(segments) == 1
        assert segments[0].attrs["path"] == "parallel"
        assert segments[0].attrs["tier"] == (
            sim.last_overlap["per_shard"][0]["tier"])
