"""Process-wide caches: NumPy-kernel sharing and the autotune memo."""

import gc

import numpy as np
import pytest

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.acoustics.lift_programs import LEAPFROG
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.bench.harness import kernel_resources
from repro.lift.codegen.plan import Launch
from repro.gpu import (AutotuneMemo, NVIDIA_TITAN_BLACK, VirtualGPU,
                       autotune_memo, autotune_workgroup,
                       clear_kernel_caches, kernel_cache_stats,
                       resolve_device)
from repro.gpu.runtime import _NP_KERNEL_CACHE
from repro.lift.codegen.arena import arena_stats

from .conftest import step_launches


def _run(devices="TitanBlack", steps=2):
    cfg = SimConfig(room=Room(Grid3D(10, 8, 8), BoxRoom()),
                    backend="virtual_gpu", devices=devices)
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.run(steps)
    return sim


def _compile_caches():
    # the arena key carries cumulative hit/miss counters, which grow with
    # every run; only the compile cache must stay fixed across reruns
    return {k: v for k, v in kernel_cache_stats().items()
            if k == "np_kernels"}


def test_kernel_compile_shared_across_instances():
    clear_kernel_caches()
    sim = _run()
    first = _compile_caches()
    # the launches' compiled step, and nothing a launch would run alone
    assert first["np_kernels"] == 1 and not _NP_KERNEL_CACHE
    # each launch's resources are the ones its plan carries, analysed
    # once per kernel and kept there, not in a process-wide table
    assert "resources" not in kernel_cache_stats()
    launches = [op for op in sim._host_program.plan.ops
                if isinstance(op, Launch)]
    assert launches
    assert all(op.kernel.resources is not None for op in launches)
    # a second simulation of the same program adds no new cache entries
    _run()
    assert _compile_caches() == first
    # and a shard pool running the same program also reuses them
    _run(devices="TitanBlack:2")
    assert _compile_caches() == first


@pytest.mark.parametrize("devices", ["TitanBlack", "TitanBlack:2"])
def test_a_stepping_plan_builds_only_its_step(devices):
    """A resident or pool ``fd_mm`` run builds what its step runs and
    nothing else: one compiled step, and no NumPy kernel, per-launch
    executable or arena workspace; a one-shot ``execute()`` still runs
    launch by launch, each launch on its own executable."""
    clear_kernel_caches()
    gc.collect()
    live = arena_stats()["workspaces"]
    cfg = SimConfig(room=Room(Grid3D(12, 10, 8), BoxRoom()), scheme="fd_mm",
                    backend="virtual_gpu", devices=devices)
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.run(3)
    assert kernel_cache_stats()["np_kernels"] == 1
    if sim._step.tier != "numpy":     # the numpy tier steps in workspaces
        assert arena_stats()["workspaces"] == live
    res = VirtualGPU(NVIDIA_TITAN_BLACK).execute(sim._host_program,
                                                 *sim._vgpu_io())
    kernels = [e for e in res.events if e.kind == "kernel"]
    assert [e.name for e in kernels] == [
        op.kernel.name for op in sim._host_program.plan.launches()]
    # each launch's NumPy kernel and executable
    assert kernel_cache_stats()["np_kernels"] == 1 + 2 * len(kernels)


def test_a_refused_wiring_builds_no_step():
    """The wiring is checked before the step is built: a leapfrog cycle
    that names the wrong oldest level is refused on every tier, and no
    step of any tier is left behind."""
    from repro.lift.codegen.loops import LoopsUnsupported
    clear_kernel_caches()
    sim = _run(steps=0)
    built = kernel_cache_stats()["np_kernels"]
    with pytest.raises(LoopsUnsupported, match="do not overwrite"):
        sim._gpu.compile_step(sim._host_program.plan,
                              [("prev1_h", "prev2_h", "__out__")])
    assert kernel_cache_stats()["np_kernels"] == built


def test_kernel_cache_results_stay_bit_identical():
    clear_kernel_caches()
    cold = _run(steps=3)
    warm = _run(steps=3)                  # compiled kernels come from cache
    assert np.array_equal(cold.curr, warm.curr)


@pytest.mark.parametrize("order", [("double", "single"),
                                   ("single", "double")])
def test_one_device_runs_each_precisions_own_kernel(order):
    """Kernels are looked up by source, not by name: one device running
    ``fi_mm`` in one precision and then in the other runs the second
    precision's own kernels — bit-identical to ``numpy-steady`` — and
    prices them as a fresh device does."""
    steps = 4
    clear_kernel_caches()
    gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
    for precision in order:
        sims = [RoomSimulation(SimConfig(
            room=Room(Grid3D(14, 12, 10), BoxRoom()), scheme="fi_mm",
            precision=precision, backend=backend))
            for backend in ("numpy-steady", "virtual_gpu")]
        for sim in sims:
            sim.add_impulse("center")
        steady, sim = sims
        steady.run(steps)
        args = (sim._host_program, *sim._vgpu_io(), steps, [LEAPFROG])
        res = step_launches(gpu, *args)
        n = sim._N
        assert np.array_equal(np.asarray(res.result)[:n], steady.curr[:n])
        fresh = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), *args)
        assert res.kernel_time_ms() == fresh.kernel_time_ms()
        # and the launch cached under each kernel's source runs that
        # source: its own launch step, or the NumPy kernel itself
        for op in sim._host_program.plan.ops:
            if isinstance(op, Launch):
                key = op.kernel.source_key()
                ex = _NP_KERNEL_CACHE[key + "#loops"]
                nk = _NP_KERNEL_CACHE[key + "#steady"]
                programs = [nk.program] if ex is nk else ex.programs
                assert len(programs) == 1 and programs[0] is nk.program


def test_autotune_memo_hits_on_repeat_and_across_shards():
    res = kernel_resources("fi_mm", "double")
    memo = AutotuneMemo()
    d0, d1 = resolve_device("TitanBlack:2")
    t0 = autotune_workgroup(res, 4096, d0, "double", memo=memo)
    assert (memo.hits, memo.misses) == (0, 1)
    # same shape again -> hit; the other shard (same hardware model,
    # different name) -> also a hit
    t1 = autotune_workgroup(res, 4096, d0, "double", memo=memo)
    t2 = autotune_workgroup(res, 4096, d1, "double", memo=memo)
    assert t0 is t1 is t2
    assert (memo.hits, memo.misses, len(memo)) == (2, 1, 1)


def test_autotune_memo_key_separates_real_inputs():
    res = kernel_resources("fi_mm", "double")
    memo = AutotuneMemo()
    d = resolve_device("TitanBlack")[0]
    other = resolve_device("AMD7970")[0]
    gather = np.arange(64, dtype=np.int32)
    autotune_workgroup(res, 4096, d, "double", memo=memo)
    autotune_workgroup(res, 8192, d, "double", memo=memo)        # n_items
    autotune_workgroup(res, 4096, d, "single", memo=memo)        # precision
    autotune_workgroup(res, 4096, other, "double", memo=memo)    # hardware
    autotune_workgroup(res, 4096, d, "double", gather_index=gather,
                       memo=memo)                                # gather hash
    assert (memo.hits, memo.misses) == (0, 5)
    memo.clear()
    assert len(memo) == 0 and memo.misses == 0


def test_process_wide_memo_accumulates_during_simulation():
    shared = autotune_memo()
    shared.clear()
    _run(steps=4)
    # the resident stepper tunes each launch once, when the plan opens,
    # and never looks the memo up again while stepping ...
    misses = shared.misses
    assert misses > 0 and shared.hits == 0
    # ... so the hits come from a second simulation of the same shape
    _run(steps=4)
    assert (shared.hits, shared.misses) == (misses, misses)
