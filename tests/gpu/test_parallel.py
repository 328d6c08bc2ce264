"""Shard threads: a ``parallel=True`` pool steps one compiled step over
the Z-block range of each shard, on the caller's own arrays.

The fixtures reuse the small grid of ``test_multi``.  Where the step is
not on the cc tier, the pool steps it whole on the calling thread
(``MultiGPU.serial_reason``), and the same tests check that path.
``TestHostProgramPickles`` checks the round trip that stores a compiled
host program in the loops disk cache.
"""

import gc
import multiprocessing
import os
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (LEAPFROG, compiled_host,
                                           two_kernel_host)
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.lift.codegen import loops
from repro.lift.codegen.host import compile_host
from repro.lift.codegen.loops import LoopsUnsupported, select_tier
from repro.lift.codegen.plan import Launch
from repro.gpu import (ClInvalidValue, FaultPlan, FaultSpec, MultiGPU,
                       NVIDIA_TITAN_BLACK, ShardLost, VirtualGPU,
                       clear_kernel_caches)

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


def _tier():
    try:
        return select_tier()
    except LoopsUnsupported:
        return "numpy"


#: shard threads step the cc tier; elsewhere a parallel pool steps whole
THREADED = _tier() == "cc"
PARALLEL = "parallel" if THREADED else "pool-loop"


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


def _shard_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-shard-")]


class TestParallelBitIdentity:
    @pytest.mark.parametrize("shards,rotations",
                             [(2, ROT_FI), (3, ROT_FI), (2, None)],
                             ids=["2", "3", "2-no-rotations"])
    def test_fi_mm_matches_single_and_serial(self, fi_mm, shards, rotations):
        if rotations is None:
            # a pool steps over two time levels, which needs the leapfrog
            # cycle: refused at the call, before any thread starts
            before = len(_shard_threads())
            with pytest.raises(ClInvalidValue, match="leapfrog"):
                MultiGPU(f"TitanBlack:{shards}", parallel=True).execute_many(
                    fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS)
            assert len(_shard_threads()) == before
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
        assert par.overlap["executor"] == PARALLEL
        assert serial.overlap["executor"] == "pool-loop"
        # the same modelled clock either way
        assert par.per_shard_kernel_time_ms() == \
            serial.per_shard_kernel_time_ms()
        assert par.halo_time_ms() == serial.halo_time_ms()

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
        # pool could rebuild it from
        host = compile_host(two_kernel_host("fi_mm", "double").program,
                            "handed")
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            host, fi_mm["inputs"], fi_mm["sizes"], STEPS, rotations=ROT_FI)
        ref = _ref(fi_mm, ROT_FI)
        N = fi_mm["N"]
        assert par.overlap["executor"] == PARALLEL
        assert np.array_equal(par.result[:N], np.asarray(ref.result)[:N])
        launched = {e.name for ev in par.shard_events for e in ev
                    if e.kind == "kernel"}
        assert launched == {op.kernel.name for op in host.plan.ops
                            if isinstance(op, Launch)}

    def test_the_callers_inputs_are_untouched(self, fi_mm):
        """``execute_many`` steps copies; a simulation's plan steps its
        own arrays (``MultiGPU.stepping`` with ``in_place``)."""
        before = {k: np.array(v) for k, v in fi_mm["inputs"].items()
                  if isinstance(v, np.ndarray)}
        MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], 2,
            rotations=ROT_FI)
        for k, v in before.items():
            assert np.array_equal(fi_mm["inputs"][k], v), k


class TestHostProgramPickles:
    """A host program after a pickle round trip (as the loops disk cache
    stores it) runs the same bits and prices the same modelled clock.
    The kernel caches are cleared before each run, so the copy compiles
    its own kernels instead of reusing the original's."""

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
        assert ov["executor"] == PARALLEL
        assert ov["shards"] == 2 and ov["steps"] == STEPS
        plane = grid.nx * grid.ny
        for p in ov["per_shard"]:
            # the footprint comes from the kernel's own shift-op IR: one
            # z-plane on each side for the 7-point SLF stencil
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

    def test_halo_pricing_matches_worker_schedule(self, fi_mm):
        """Every step prices its exchange, threaded or not."""
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        serial = MultiGPU("TitanBlack:2").execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI)
        assert par.halo_time_ms() == serial.halo_time_ms() > 0
        assert len(par.halo_events) == 2 * STEPS
        assert all(e.kind == "halo" for e in par.halo_events)


class TestFallbacks:
    def test_the_in_process_loop_samples_receivers(self, fi_mm, grid):
        """Both executors sample receivers, at the same points."""
        loop = MultiGPU("TitanBlack:2")
        assert loop.serial_reason(loop.compile_step(
            fi_mm["host"].plan, ROT_FI)) == "parallel=False"
        mics = {"lo": 3 * grid.nx * grid.ny + 5,
                "hi": 8 * grid.nx * grid.ny + 5}
        got, par = (MultiGPU("TitanBlack:2", parallel=p).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], STEPS,
            rotations=ROT_FI, receivers=mics) for p in (False, True))
        assert got.overlap["executor"] == "pool-loop"
        assert par.overlap["executor"] == PARALLEL
        for name in mics:
            assert len(got.receivers[name]) == STEPS
            assert np.array_equal(got.receivers[name], par.receivers[name])

    def test_single_shard_degenerates(self, fi_mm):
        par = MultiGPU(("TitanBlack",), parallel=True)
        assert par.serial_reason(par.compile_step(
            fi_mm["host"].plan, ROT_FI)) == "single_shard"
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
    """A shard's device lost (a killed shard worker process, before the
    shards were threads) surfaces as :class:`ShardLost`."""

    def test_killed_worker_raises_shardlost(self, fi_mm):
        """The fault plan rides on the first device: a ``device_lost``
        at its launch sites loses shard 0 before any slab is stepped."""
        faults = FaultPlan([FaultSpec("device_lost", steps=(3,))])
        par = MultiGPU("TitanBlack:2", faults=faults, parallel=True)
        with pytest.raises(ShardLost) as err:
            par.execute_many(fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"],
                             STEPS, rotations=ROT_FI)
        assert err.value.shard == 0 and err.value.context["step"] == 3

    def test_without_device_stays_parallel(self, fi_mm):
        par = MultiGPU("TitanBlack:3", parallel=True)
        survivors = par.without_device(0)
        assert survivors.parallel
        assert len(survivors.devices) == 2
        res = survivors.execute_many(fi_mm["host"], fi_mm["inputs"],
                                     fi_mm["sizes"], STEPS,
                                     rotations=ROT_FI)
        ref = _ref(fi_mm, ROT_FI)
        N = fi_mm["N"]
        assert np.array_equal(res.result[:N], np.asarray(ref.result)[:N])
        assert res.overlap["executor"] == PARALLEL


def _sim(scheme, devices=None, steps=6, room=DomeRoom, **kw):
    cfg = SimConfig(room=Room(Grid3D(14, 12, 10), room()),
                    scheme=scheme, backend="virtual_gpu", devices=devices,
                    **kw)
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    sim.run(steps)
    return sim


def _state(sim):
    return [sim.prev, sim.curr, sim.g1, sim.v, sim.receiver_signal("mic")]


def _lifecycle(sim):
    """Steps, a mid-run checkpoint, an impulse between runs, a restore
    and the same again: what a stepping path must reproduce."""
    sim.run(3)
    cp = sim.checkpoint()
    sim.add_impulse((4, 5, 6), 0.5)
    sim.run(2)
    sim.step()
    sim.restore(cp)
    sim.add_impulse((4, 5, 6), 0.5)
    sim.run(3)
    return sim


class TestSimParallel:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("room", [BoxRoom, DomeRoom])
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_shard_threads_are_bit_identical(self, scheme, precision, room,
                                             shards):
        """3 schemes x 2 precisions x box and dome x 2 and 4 shards,
        with a receiver, a mid-run checkpoint restored and impulses
        added between runs."""
        ref = _lifecycle(_sim(scheme, precision=precision, room=room,
                              steps=0))
        par = _lifecycle(_sim(scheme, devices=f"TitanBlack:{shards}",
                              parallel=True, precision=precision,
                              room=room, steps=0))
        assert par._path == PARALLEL and par.time_step == ref.time_step
        for got, want in zip(_state(par), _state(ref)):
            assert np.array_equal(got, want)

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
        assert par.last_overlap["executor"] == PARALLEL

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
        """Every step prices its halo exchange, stamped with its
        simulation step, and a fault plan names simulation steps: a
        device lost at step 4 replays from the checkpoint at step 3."""
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
        assert sorted({h.attrs["step"] for h in halos}) == list(range(6))
        assert len(halos) == 2 * 6           # both directions each step
        assert np.array_equal(sim.curr, ref.curr)

        faults = FaultPlan([FaultSpec("device_lost", steps=(4,),
                                      max_count=1)])
        lost = RoomSimulation(SimConfig(**{**cfg.__dict__,
                                           "faults": faults}))
        lost.add_impulse("center")
        lost.run(6)
        assert len(lost.devices) == 1        # the loss fired ...
        assert [p.detail for p in lost.policy_log if p.action == "reshard"]
        assert [r.step for r in faults.records] == [4]
        assert np.array_equal(lost.curr, ref.curr)

    def test_killed_shard_process_recovers_bit_identically(self):
        ref = _sim("fi_mm", steps=8)
        cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                        scheme="fi_mm", backend="virtual_gpu",
                        devices="TitanBlack:2", parallel=True,
                        checkpoint_interval=2, faults=FaultPlan(
                            [FaultSpec("device_lost", steps=(1,),
                                       max_count=1)]))
        sim = RoomSimulation(cfg)
        sim.add_impulse("center")
        sim.add_receiver("mic", (3, 3, 3))
        sim.run(8)
        assert np.array_equal(sim.curr, ref.curr)
        assert np.array_equal(sim.receiver_signal("mic"),
                              ref.receiver_signal("mic"))
        assert sim.time_step == 8
        # the lost device left the pool; the survivor pool keeps
        # ``parallel`` (it just steps whole at one shard)
        assert sim._gpu.parallel
        assert sim._path == "pool-loop"
        assert len(sim.devices) == 1

    def test_a_parallel_step_is_priced_as_the_pool_loop(self):
        """14x12x10 dome, fi_mm, TitanBlack:2, 6 steps: one run, runs
        between checkpoints every 3 steps and six direct steps read one
        modelled clock, the pool loop's."""
        def clock(parallel, **kw):
            sim = RoomSimulation(SimConfig(
                room=Room(Grid3D(14, 12, 10), DomeRoom()), scheme="fi_mm",
                backend="virtual_gpu", devices="TitanBlack:2",
                parallel=parallel, **kw))
            sim.add_impulse("center")
            if kw:
                sim.run(6)
            else:
                for _ in range(6):
                    sim.step()
            return sim.modelled_gpu_time_ms, sim.modelled_halo_time_ms

        loop = clock(False)
        assert loop[0] == pytest.approx(0.0616, abs=5e-5)
        for kw in (dict(checkpoint_interval=0), dict(checkpoint_interval=3),
                   dict()):
            assert clock(True, **kw) == loop


class TestNoProcesses:
    """A pool's shards are threads of the simulation's process: a pool
    simulation starts no process and creates no shared memory — running,
    stepping, checkpointing and restoring, and losing a shard."""

    def test_a_pool_starts_no_process_and_no_shared_memory(self, tmp_path):
        shm = Path("/dev/shm")
        segments = (lambda: {n for n in os.listdir(shm)
                             if n.startswith("psm_")}) if shm.is_dir() \
            else set
        before = segments()
        gc.collect()                    # earlier tests' dropped plans
        threads = set(_shard_threads())
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(14, 12, 10), DomeRoom()), scheme="fd_mm",
            backend="virtual_gpu", devices="TitanBlack:2", parallel=True,
            checkpoint_interval=2, faults=FaultPlan(
                [FaultSpec("device_lost", steps=(5,), max_count=1)])))
        sim.add_impulse("center")
        sim.run(3)
        # one thread per shard, started once for the simulation
        ours = set(_shard_threads()) - threads
        assert len(ours) == 2 * THREADED
        sim.step()
        sim.save_checkpoint(tmp_path / "cp")
        sim.run(1)
        sim.load_checkpoint(tmp_path / "cp")
        assert set(_shard_threads()) - threads == ours
        sim.run(3)                      # loses shard 0 at step 5
        assert len(sim.devices) == 1 and sim.time_step == 7
        assert multiprocessing.active_children() == []
        assert segments() <= before
        # the re-sharded pool steps on this thread; the lost pool's
        # threads ended with its plan, and a dropped simulation's end
        del sim
        gc.collect()
        for t in ours:
            t.join(timeout=5)
            assert not t.is_alive()
        assert not set(_shard_threads()) - threads


class TestStepReport:
    def test_every_shard_reports_its_step_tier(self, fi_mm):
        par = MultiGPU("TitanBlack:2", parallel=True).execute_many(
            fi_mm["host"], fi_mm["inputs"], fi_mm["sizes"], 3,
            rotations=ROT_FI)
        per = par.overlap["per_shard"]
        assert len(per) == 2
        for p in per:
            assert p["tier"] == _tier()
            assert (p["cc_rung"] is not None) == (p["tier"] == "cc")

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
        steps = o.tracer.find("sim.step", cat="sim")
        assert [s.attrs["path"] for s in steps] == [PARALLEL] * 3
        assert {s.attrs["tier"] for s in steps} == {
            sim.last_overlap["per_shard"][0]["tier"]}


def test_a_shard_threads_openmp_team_is_capped():
    """``omp_set_threads`` caps the calling thread's own OpenMP team,
    and only its: a shard thread runs ``cpu_count // k`` threads."""
    if "openmp" not in (loops._cc_built()[0] or ""):
        pytest.skip("the cc tier builds without OpenMP here")
    import ctypes
    gomp = ctypes.CDLL("libgomp.so.1")
    main = gomp.omp_get_max_threads()
    seen = []

    def shard():
        loops.omp_set_threads(1)
        seen.append(gomp.omp_get_max_threads())

    t = threading.Thread(target=shard)
    t.start()
    t.join()
    assert seen == [1] and gomp.omp_get_max_threads() == main
