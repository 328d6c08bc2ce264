"""The backend-neutral ArenaProgram artifact and its two emitters.

The lowering contract of the codegen tree is: one
:class:`~repro.lift.codegen.arena.ArenaProgram` per kernel, consumed by
*every* executable emitter (the vectorised NumPy-steady emitter and the
compiled fused-loop emitter).  These tests pin

* the IR itself, as a golden ``dump()`` snapshot, so emitter refactors
  can't silently change the lowering they all share;
* the lower-once-feed-both property: the loop emitter consumes the
  *same object* the NumPy emitter rendered its source from;
* the pure-python loop tier's bit-identity against the NumPy-steady
  reference, end to end through a real simulation (the compiled
  numba/cc tiers are covered machine-independently by the
  cross-backend matrix in ``tests/acoustics``).

To refresh the golden file after an *intentional* lowering change:

    python tests/lift/test_arena_program.py --regen
"""

import pathlib
import sys
import warnings

import numpy as np
import pytest

from repro.acoustics.lift_programs import fi_fused_flat, fi_mm_boundary
from repro.lift.codegen.loops import (LoopsUnsupported, available_tiers,
                                      compile_loops)
from repro.lift.codegen.numpy_backend import compile_numpy

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _artefacts():
    return {
        "fi_fused_flat_double.ir.txt":
            compile_numpy(fi_fused_flat("double").kernel, "fi_fused_flat").program.dump() + "\n",
        "fi_mm_boundary_double.ir.txt":
            compile_numpy(fi_mm_boundary("double").kernel, "fi_mm_boundary").program.dump() + "\n",
    }


@pytest.mark.parametrize("name", sorted(_artefacts()))
def test_arena_ir_matches_snapshot(name):
    expected = (GOLDEN / name).read_text()
    actual = _artefacts()[name]
    assert actual == expected, (
        f"ArenaProgram lowering for {name} changed; if intentional, "
        f"regenerate with `python {__file__} --regen`")


def test_lower_once_feeds_both_emitters():
    """The NumPy-steady source and the loop kernel come from one
    lowering: same ArenaProgram object, no re-lowering in between."""
    nk = compile_numpy(fi_fused_flat("double").kernel, "fi_fused_flat")
    # the NumPy emitter's source is exactly the IR's own rendering
    assert nk.source == nk.program.render()
    lk = compile_loops(nk.program, tier="python")
    assert lk.program is nk.program
    assert lk.param_names == nk.program.param_names
    assert lk.size_params == nk.program.size_params


def test_available_tiers_always_lists_python():
    tiers = available_tiers()
    assert "python" in tiers


def test_rank3_full_store_program_is_loop_lowerable():
    from repro.acoustics.lift_programs import fi_fused_3d
    nk = compile_numpy(fi_fused_3d("double").kernel, "fi_fused_3d")
    assert nk.program.loop_domain() == "grid3"
    assert nk.program.loop_opaque_reasons() == []
    lk = compile_loops(nk.program, tier="python")
    assert lk.program is nk.program


def test_loop_opaque_program_raises_typed_error():
    from repro.lift.codegen.arena import ArenaProgram, RawOp
    prog = ArenaProgram(name="opaque_demo", param_names=["x"],
                        size_params=["N"])
    prog.ops.append(RawOp("out = np.fft.fft(x).real"))
    reasons = prog.loop_opaque_reasons()
    assert reasons
    with pytest.raises(LoopsUnsupported):
        compile_loops(prog, tier="python")


@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_python_tier_bit_identical(scheme, monkeypatch):
    """End-to-end: the interpreted loop tier (no compiler involved, so
    this runs on any host) reproduces the steady trajectory exactly."""
    from repro.acoustics import RoomSimulation, SimConfig
    from repro.acoustics.geometry import DomeRoom, Room
    from repro.acoustics.grid import Grid3D
    from repro.acoustics.materials import (default_fd_materials,
                                           default_fi_materials)
    monkeypatch.setenv("REPRO_LOOP_TIER", "python")
    mats = (default_fd_materials(3) if scheme == "fd_mm"
            else default_fi_materials(3))

    def run(backend):
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(10, 9, 8), DomeRoom()), scheme=scheme,
            backend=backend, materials=mats))
        sim.add_impulse("center")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sim.run(12)
        return sim

    ref, loops = run("numpy-steady"), run("numba")
    assert np.array_equal(ref.curr, loops.curr)
    assert ref.curr.dtype == loops.curr.dtype


if __name__ == "__main__":
    if "--regen" in sys.argv:
        for name, text in _artefacts().items():
            (GOLDEN / name).write_text(text)
            print(f"regenerated {GOLDEN / name}")
