"""Process-wide caches: NumPy-kernel sharing and the autotune memo."""

import numpy as np
import pytest

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.acoustics.lift_programs import LEAPFROG
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.bench.harness import kernel_resources
from repro.lift.codegen.host import Launch
from repro.gpu import (AutotuneMemo, NVIDIA_TITAN_BLACK, VirtualGPU,
                       autotune_memo, autotune_workgroup,
                       clear_kernel_caches, kernel_cache_stats,
                       resolve_device)
from repro.gpu.runtime import _NP_KERNEL_CACHE, _kernel_source_key

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
    # every run; only the compile caches must stay fixed across reruns
    return {k: v for k, v in kernel_cache_stats().items()
            if k in ("np_kernels", "resources")}


def test_kernel_compile_shared_across_instances():
    from repro.gpu.runtime import _NP_KERNEL_CACHE
    clear_kernel_caches()
    _run()
    first = _compile_caches()
    assert first["np_kernels"] > 0 and first["resources"] > 0
    # one entry per kernel and executable: the NumPy arena kernel and
    # its launch step; and one for the launches' compiled step
    assert all(key.endswith(("#steady", "#loops", "#step"))
               for key in _NP_KERNEL_CACHE)
    # a second simulation of the same program adds no new cache entries
    _run()
    assert _compile_caches() == first
    # and a shard pool running the same program also reuses them
    _run(devices="TitanBlack:2")
    assert _compile_caches() == first


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
                key = _kernel_source_key(op.kernel)
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
