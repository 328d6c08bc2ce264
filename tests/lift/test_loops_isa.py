"""Same bits from two machine codes.

The cc tier builds every step at the CPU's x86-64 psABI level
(``loops._cc_isa``): the sweep runs 4 or 8 doubles per instruction
instead of SSE2's 2.  The operations stay element-wise IEEE ones with no
contraction (``-ffp-contract=off``), so the state after many steps must
not depend on the vector width.  Each case steps one simulation built at
the detected level and one built at the compiler's baseline — a fresh
probe and a separate artifact cache — and compares every array the step
writes and what the receivers heard.
"""

import numpy as np
import pytest

from repro.acoustics import (BoxRoom, DomeRoom, Grid3D, Room, RoomSimulation,
                             SimConfig)
from repro.lift.codegen import loops

STEPS = 24


def _run(scheme, precision, shape, cache):
    loops.set_loops_cache_dir(cache)
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(13, 11, 10), shape()),
                                   scheme=scheme, precision=precision,
                                   backend="numba"))
    sim.add_impulse("center")
    sim.add_receiver("near", (5, 4, 3))
    sim.add_receiver("far", (9, 6, 4))
    sim.run(STEPS)
    return sim


@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_the_psabi_level_moves_no_bit(scheme, precision, shape, tmp_path,
                                      monkeypatch):
    if "cc" not in loops.available_tiers():
        pytest.skip("no working C compiler")
    level = loops._cc_isa()
    if level is None:
        pytest.skip("this CPU has no x86-64 psABI level above the baseline")
    monkeypatch.setenv("REPRO_LOOP_TIER", "cc")
    monkeypatch.setattr(loops, "_cc_state", {})
    prev = loops.loops_cache_dir()
    try:
        wide = _run(scheme, precision, shape, tmp_path / "level")
        if wide._step.cc_isa != level:
            pytest.skip(f"the compiler rejects -march={level}")
        monkeypatch.setattr(loops, "_cc_isa", lambda: None)
        monkeypatch.setattr(loops, "_cc_state", {})
        base = _run(scheme, precision, shape, tmp_path / "baseline")
    finally:
        loops.set_loops_cache_dir(prev)
    assert base._step.cc_isa is None
    assert base._step.source == wide._step.source
    for name in ("prev", "curr", "g1", "v"):
        assert np.array_equal(getattr(wide, name), getattr(base, name)), name
    assert np.any(wide.curr != 0)
    for mic in ("near", "far"):
        signal = wide.receiver_signal(mic)
        assert signal.size == STEPS and np.any(signal != 0), mic
        assert np.array_equal(signal, base.receiver_signal(mic)), mic
