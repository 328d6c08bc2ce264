"""Process-wide caches: NumPy-kernel sharing and the autotune memo."""

import numpy as np

from repro.acoustics import BoxRoom, Grid3D, Room
from repro.acoustics.sim import RoomSimulation, SimConfig
from repro.bench.harness import kernel_resources
from repro.gpu import (AutotuneMemo, autotune_memo, autotune_workgroup,
                       clear_kernel_caches, kernel_cache_stats,
                       resolve_device)


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
    # its compiled-loop upgrade
    assert all(key.endswith(("#steady", "#loops")) for key in _NP_KERNEL_CACHE)
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
