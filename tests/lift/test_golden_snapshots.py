"""Golden-file snapshots of generated code.

These pin the exact text of the flagship kernels (paper Listings 3/4
counterparts) so unintended code-generation changes are caught — the
OpenCL and NumPy emissions, and the fused-loop emission — one launch
and one two-level step — in its python tier (it needs no compiler, and
its casts carry the same slot-dtype table as the generated C).  To
refresh after an *intentional* change:

    python tests/lift/test_golden_snapshots.py --regen
"""

import functools
import os
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.acoustics.lift_programs import (fd_mm_boundary, fi_mm_boundary,
                                           volume_kernel)
from repro.lift.codegen.loops import _build_step, compile_launch
from repro.lift.codegen.numpy_backend import compile_numpy
from repro.lift.codegen.opencl import compile_kernel

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _loop_source(program, *args, **sizes):
    """The python-tier source of one launch for these argument dtypes,
    from the step builder (a launch generates its code from the dtypes
    alone), so nothing runs."""
    lk = compile_launch(compile_numpy(program.kernel, program.name).program,
                        tier="python")
    return _build_step(lk, lk.bind(
        {**dict(zip(lk.param_names, args)), **sizes})).source


def _step_source(scheme, precision):
    """The python-tier source of a scheme's compiled step
    (``backend="numba"``), generated by its first step.  The source
    depends on the programs and argument dtypes only, so a tiny room
    gives the step the paper's room runs."""
    with mock.patch.dict(os.environ, {"REPRO_LOOP_TIER": "python"}):
        sim = RoomSimulation(SimConfig(room=Room(Grid3D(6, 5, 5), BoxRoom()),
                                       scheme=scheme, precision=precision,
                                       backend="numba"))
        sim.step()
    return sim._step.source


def _loop_artefacts():
    f4, f8, i4 = (functools.partial(np.zeros, dtype=d)
                  for d in ("f4", "f8", "i4"))
    return {
        "volume_kernel_double.loop.py.txt": _loop_source(
            volume_kernel("double"), f8(4), f8(4), i4(4), np.float64(0.5),
            1, 1, N=2, NP=4, out=f8(4)),
        # K=1 boundary point, M=1 material, 3 branches
        "fd_mm_boundary_single_mb3.loop.py.txt": _loop_source(
            fd_mm_boundary("single", 3), i4(1), i4(1), i4(2), f4(1),
            f4(3), f4(3), f4(3), f4(3), f4(2), f4(2), f4(3), f4(3), f4(3),
            np.float32(0.5), 1, M=1, N=2),
        # volume_kernel + fd_mm_boundary, 3 branches: one step, two levels
        "fd_mm_step_double_mb3.loop.py.txt": _step_source("fd_mm", "double"),
    }


def _artefacts():
    return {
        **_loop_artefacts(),
        "fi_mm_boundary_single.cl":
            compile_kernel(fi_mm_boundary("single").kernel,
                           "fi_mm_boundary").source + "\n",
        "fd_mm_boundary_double_mb3.cl":
            compile_kernel(fd_mm_boundary("double", 3).kernel,
                           "fd_mm_boundary").source + "\n",
        "fi_mm_boundary_double.py.txt":
            compile_numpy(fi_mm_boundary("double").kernel,
                          "fi_mm_boundary").source + "\n",
    }


@pytest.mark.parametrize("name", sorted(_artefacts()))
def test_generated_code_matches_snapshot(name):
    expected = (GOLDEN / name).read_text()
    actual = _artefacts()[name]
    assert actual == expected, (
        f"generated code for {name} changed; if intentional, regenerate "
        f"with `python {__file__} --regen`")


def test_snapshots_are_deterministic():
    assert _artefacts() == _artefacts()


if __name__ == "__main__":
    if "--regen" in sys.argv:
        for name, text in _artefacts().items():
            (GOLDEN / name).write_text(text)
            print(f"regenerated {GOLDEN / name}")
