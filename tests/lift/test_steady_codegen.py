"""Golden-source regression tests for the NumPy (arena) emission.

:func:`compile_numpy` must emit a hot path with **zero full-grid
allocations**: every padded ghost-cell buffer, gather, ufunc result and
``where`` routes through the
:class:`~repro.lift.codegen.arena.Workspace`.  These tests pin that
property at the source level (no ``np.pad``, no bare allocating ufunc
calls), anchor the results on the reference interpreter, and check the
single-precision dtype discipline (no silent float64 upcasts).
"""

import re

import numpy as np
import pytest

from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_3d,
                                           fi_fused_flat, fi_mm_boundary,
                                           volume_kernel)
from repro.lift.codegen.arena import ArenaFrozenError, Workspace
from repro.lift.codegen.numpy_backend import compile_numpy
from repro.lift.interp import Interp

KERNELS = {
    "fi_fused": lambda p: fi_fused_flat(p).kernel,
    "fi_fused_3d": lambda p: fi_fused_3d(p).kernel,
    "volume": lambda p: volume_kernel(p).kernel,
    "fi_mm": lambda p: fi_mm_boundary(p).kernel,
    "fd_mm": lambda p: fd_mm_boundary(p, 3).kernel,
}

#: a direct call to any of these allocates a fresh array; in steady
#: source they may only appear as *function objects* handed to
#: ``_ws.ufunc`` (i.e. ``np.add,`` — never ``np.add(``)
_ALLOCATING_CALL = re.compile(
    r"np\.(add|subtract|multiply|true_divide|divide|minimum|maximum|"
    r"greater|greater_equal|less|less_equal|equal|not_equal|where|pad|"
    r"empty|zeros|ones|concatenate)\s*\(")


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_steady_source_has_no_full_grid_allocations(name, precision):
    src = compile_numpy(KERNELS[name](precision), name).source
    assert "np.pad(" not in src, src          # ghost cells live in the arena
    m = _ALLOCATING_CALL.search(src)
    assert m is None, f"bare allocating call {m.group(0)!r} in:\n{src}"


def test_the_allocating_emission_is_gone():
    """``steady`` survives as a keyword for the perf ledger's probe; the
    emission it used to switch off does not."""
    off = False
    with pytest.raises(ValueError, match="one emission"):
        compile_numpy(KERNELS["volume"]("double"), "volume", steady=off)


def test_cse_emits_each_subexpression_once():
    src = compile_numpy(fi_fused_flat("single").kernel, "fi").source
    rhs = [line.split(" = ", 1)[1]
           for line in src.splitlines() if " = _ws." in line]
    assert len(rhs) == len(set(rhs)), (
        "duplicated arena operation survived CSE:\n" + src)


class TestBitIdentity:
    """Arena output equals the reference interpreter's on the same
    inputs: bit for bit in double; the interpreter evaluates in float64,
    so a single-precision kernel agrees with it to float32 rounding."""

    def _problem(self, precision):
        from repro.acoustics.geometry import DomeRoom, Room
        from repro.acoustics.grid import Grid3D
        from repro.acoustics.topology import build_topology
        g = Grid3D(12, 10, 9)
        topo = build_topology(Room(g, DomeRoom()), num_materials=3)
        rng = np.random.default_rng(7)
        dt = np.float32 if precision == "single" else np.float64
        N, guard = g.num_points, g.nx * g.ny

        def state():
            return rng.standard_normal(N + guard).astype(dt)

        return g, topo, N, guard, state, dt

    @staticmethod
    def _assert_matches(got, ref, dt):
        assert got.dtype == dt
        if dt is np.float64:
            np.testing.assert_array_equal(got, ref)
        else:                       # ~100 ulp of O(1..10) field values
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_fused_kernel(self, precision):
        g, topo, N, guard, state, dt = self._problem(precision)
        prev, curr = state(), state()
        nbrs = np.concatenate([topo.nbrs, np.zeros(guard, np.int32)])
        lam = dt(g.courant)
        beta = dt(0.35)
        kernel = fi_fused_flat(precision).kernel
        ref = np.asarray(Interp(sizes={"N": N, "NP": N + guard}).run(
            kernel, prev, curr, nbrs, float(lam), float(beta),
            g.nx, g.nx * g.ny))
        nk = compile_numpy(kernel, "f")
        ws = Workspace("test")
        for _ in range(3):                     # warm, then hot path
            out = np.zeros(N + guard, dt)
            nk.fn(prev, curr, nbrs, lam, beta, g.nx, g.nx * g.ny,
                  N=N, NP=N + guard, out=out, _ws=ws)
            self._assert_matches(out[:N], ref, dt)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_boundary_kernel(self, precision):
        g, topo, N, guard, state, dt = self._problem(precision)
        from repro.acoustics.materials import (MaterialTable,
                                               default_fi_materials)
        table = MaterialTable.from_fi(default_fi_materials(3))
        beta = table.beta.astype(dt)
        prev = state()
        kernel = fi_mm_boundary(precision).kernel
        sizes = dict(N=N, K=topo.num_boundary_points,
                     M=table.num_materials)
        base = state()
        ref = base.copy()
        Interp(sizes=sizes).run(kernel, topo.boundary_indices,
                                topo.material, topo.nbrs, beta, ref, prev,
                                float(dt(g.courant)))
        nk = compile_numpy(kernel, "b")
        ws = Workspace("test")
        for _ in range(3):
            buf = base.copy()
            nk.fn(topo.boundary_indices, topo.material, topo.nbrs, beta,
                  buf, prev, dt(g.courant), **sizes, _ws=ws)
            self._assert_matches(buf, ref, dt)


class TestDtypePreservation:
    """Single-precision programs must never upcast to float64: OpenCL
    evaluates mixed int/float arithmetic at float width, so the arena
    slots of a float32 kernel are float32 (or integer/bool), never f64."""

    def _run_single(self):
        from repro.acoustics.geometry import DomeRoom, Room
        from repro.acoustics.grid import Grid3D
        from repro.acoustics.topology import build_topology
        g = Grid3D(12, 10, 9)
        topo = build_topology(Room(g, DomeRoom()), num_materials=3)
        N, guard = g.num_points, g.nx * g.ny
        rng = np.random.default_rng(3)
        prev = rng.standard_normal(N + guard).astype(np.float32)
        curr = rng.standard_normal(N + guard).astype(np.float32)
        nbrs = np.concatenate([topo.nbrs, np.zeros(guard, np.int32)])
        nk = compile_numpy(fi_fused_flat("single").kernel, "f")
        ws = Workspace("dtype")
        out = np.zeros(N + guard, np.float32)
        for _ in range(2):
            nk.fn(prev, curr, nbrs, np.float32(g.courant), np.float32(0.3),
                  g.nx, g.nx * g.ny, N=N, NP=N + guard, out=out, _ws=ws)
        return out, ws

    def test_no_float64_slot(self):
        out, ws = self._run_single()
        assert out.dtype == np.float32
        for name, buf in ws._slots.items():
            assert buf.dtype != np.float64, (
                f"slot {name!r} silently upcast to float64")
        for name, (_key, val) in ws._consts.items():
            if isinstance(val, np.ndarray):
                assert val.dtype != np.float64, (
                    f"const {name!r} silently upcast to float64")

    def test_float_arithmetic_actually_ran_in_f32(self):
        # the all-f32 result differs from an f64-evaluated one, so equal
        # results would mean the chain secretly ran in double
        out, _ = self._run_single()
        assert out.dtype == np.float32


class TestZeroAllocation:
    def test_frozen_workspace_keeps_stepping(self):
        """After warm-up a steady kernel never allocates: freeze the
        arena and keep calling — the allocation-tracking acceptance
        hook."""
        from repro.acoustics.geometry import DomeRoom, Room
        from repro.acoustics.grid import Grid3D
        from repro.acoustics.topology import build_topology
        g = Grid3D(12, 10, 9)
        topo = build_topology(Room(g, DomeRoom()), num_materials=3)
        N, guard = g.num_points, g.nx * g.ny
        rng = np.random.default_rng(4)
        prev = rng.standard_normal(N + guard)
        curr = rng.standard_normal(N + guard)
        nbrs = np.concatenate([topo.nbrs, np.zeros(guard, np.int32)])
        nk = compile_numpy(fi_fused_flat("double").kernel, "f")
        ws = Workspace("freeze")
        out = np.zeros(N + guard)
        args = (prev, curr, nbrs, g.courant, 0.3, g.nx, g.nx * g.ny)
        nk.fn(*args, N=N, NP=N + guard, out=out, _ws=ws)   # warm-up
        ws.freeze()
        for _ in range(5):                                  # hot path
            nk.fn(*args, N=N, NP=N + guard, out=out, _ws=ws)
        assert ws.hits > 0

    def test_cold_frozen_workspace_raises(self):
        nk = compile_numpy(fi_fused_flat("double").kernel, "f")
        ws = Workspace("cold")
        ws.freeze()
        with pytest.raises(ArenaFrozenError):
            nk.fn(np.zeros(16), np.zeros(16), np.zeros(16, np.int32),
                  0.5, 0.3, 2, 4, N=12, NP=16, out=np.zeros(16), _ws=ws)
