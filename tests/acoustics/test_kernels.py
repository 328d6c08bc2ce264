"""Cross-validation of the acoustics kernels.

* vectorised NumPy kernels == scalar transliterations of the paper listings;
* two-kernel scheme (Listing 2) == fused kernel (Listing 1);
* FD-MM with inert branches == FI-MM (the FI limit);
* the eliminated FD-MM kernel algebra == the coupled implicit solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.acoustics import kernels_numpy as kn
from repro.acoustics import kernels_scalar as ks
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.materials import (Branch, FDMaterial, MaterialTable,
                                       default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology


def make_room(shape_cls=DomeRoom, dims=(12, 10, 9), num_materials=3):
    g = Grid3D(*dims)
    topo = build_topology(Room(g, shape_cls()), num_materials=num_materials)
    return g, topo


def random_states(g, topo, rng):
    N = g.num_points
    prev = np.zeros(N)
    curr = np.zeros(N)
    ins = topo.inside.reshape(-1)
    prev[ins] = rng.standard_normal(int(ins.sum()))
    curr[ins] = rng.standard_normal(int(ins.sum()))
    return prev, curr


@pytest.fixture(scope="module")
def dome():
    return make_room(DomeRoom)


@pytest.fixture(scope="module")
def box():
    return make_room(BoxRoom)


class TestVolumeKernel:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_numpy_matches_scalar(self, seed):
        g, topo = make_room()
        rng = np.random.default_rng(seed)
        prev, curr = random_states(g, topo, rng)
        lam = g.courant
        nxt_s = np.zeros(g.num_points)
        ks.volume_step_scalar(prev, curr, nxt_s, topo.nbrs, g.nx, g.ny,
                              g.nz, lam)
        nxt_n = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt_n, topo.nbrs, g.shape, lam)
        np.testing.assert_allclose(nxt_n, nxt_s, atol=1e-13)

    def test_outside_points_untouched(self, dome):
        g, topo = dome
        rng = np.random.default_rng(0)
        prev, curr = random_states(g, topo, rng)
        nxt = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt, topo.nbrs, g.shape, g.courant)
        outside = ~topo.inside.reshape(-1)
        assert (nxt[outside] == 0).all()


class TestFusedVsTwoKernel:
    """Listing 1 == Listing 2 kernel 1 + kernel 2 (single material)."""

    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 1.0])
    def test_equivalence(self, dome, beta):
        g, topo = dome
        rng = np.random.default_rng(7)
        prev, curr = random_states(g, topo, rng)
        lam = g.courant
        fused = np.zeros(g.num_points)
        ks.fi_fused_step_scalar_nbrs(prev, curr, fused, topo.nbrs,
                                     g.nx, g.ny, g.nz, lam, beta)
        two = np.zeros(g.num_points)
        kn.volume_step(prev, curr, two, topo.nbrs, g.shape, lam)
        kn.fi_boundary(two, prev, topo.boundary_indices, topo.nbrs, lam,
                       beta)
        np.testing.assert_allclose(two, fused, atol=1e-13)
        scalar = np.zeros(g.num_points)
        ks.volume_step_scalar(prev, curr, scalar, topo.nbrs, g.nx, g.ny,
                              g.nz, lam)
        ks.fi_boundary_scalar(scalar, prev, topo.boundary_indices,
                              topo.nbrs, lam, beta)
        np.testing.assert_allclose(scalar, fused, atol=1e-13)

    def test_box_onthefly_nbr_matches_lookup(self):
        """Listing 1's Boolean formulas == the §II-B nbrs lookup (box)."""
        g, topo = make_room(BoxRoom, dims=(9, 8, 7))
        rng = np.random.default_rng(3)
        prev, curr = random_states(g, topo, rng)
        a = np.zeros(g.num_points)
        b = np.zeros(g.num_points)
        ks.fi_fused_step_scalar(prev, curr, a, g.nx, g.ny, g.nz,
                                g.courant, 0.3)
        ks.fi_fused_step_scalar_nbrs(prev, curr, b, topo.nbrs, g.nx, g.ny,
                                     g.nz, g.courant, 0.3)
        np.testing.assert_allclose(a, b, atol=0)


class TestFIMMBoundary:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_numpy_matches_scalar(self, seed):
        g, topo = make_room()
        rng = np.random.default_rng(seed)
        prev, curr = random_states(g, topo, rng)
        table = MaterialTable.from_fi(default_fi_materials(3))
        nxt = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt, topo.nbrs, g.shape, g.courant)
        a, b = nxt.copy(), nxt.copy()
        ks.fi_mm_boundary_scalar(a, prev, topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, g.courant)
        kn.fi_mm_boundary(b, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, table.beta, g.courant)
        np.testing.assert_allclose(a, b, atol=0)

    def test_single_material_reduces_to_fi(self, dome):
        g, topo0 = dome
        topo = build_topology(Room(g, DomeRoom()), num_materials=1)
        rng = np.random.default_rng(5)
        prev, curr = random_states(g, topo, rng)
        nxt = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt, topo.nbrs, g.shape, g.courant)
        a, b = nxt.copy(), nxt.copy()
        beta = 0.25
        kn.fi_boundary(a, prev, topo.boundary_indices, topo.nbrs,
                       g.courant, beta)
        kn.fi_mm_boundary(b, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, np.array([beta]), g.courant)
        np.testing.assert_allclose(a, b, atol=0)

    def test_only_boundary_points_touched(self, dome):
        g, topo = dome
        rng = np.random.default_rng(1)
        prev, _ = random_states(g, topo, rng)
        table = MaterialTable.from_fi(default_fi_materials(3))
        nxt = rng.standard_normal(g.num_points)
        before = nxt.copy()
        kn.fi_mm_boundary(nxt, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, table.beta, g.courant)
        mask = np.ones(g.num_points, bool)
        mask[topo.boundary_indices] = False
        np.testing.assert_array_equal(nxt[mask], before[mask])


class TestFDMMBoundary:
    def _setup(self, seed=0, num_materials=3, mb=3):
        g, topo = make_room(num_materials=num_materials)
        rng = np.random.default_rng(seed)
        prev, curr = random_states(g, topo, rng)
        mats = default_fd_materials(num_materials)
        table = MaterialTable.from_fd(mats, mb)
        K = topo.num_boundary_points
        nxt = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt, topo.nbrs, g.shape, g.courant)
        g1 = rng.standard_normal(mb * K)
        v2 = rng.standard_normal(mb * K)
        v1 = np.zeros(mb * K)
        return g, topo, table, mats, prev, nxt, g1, v1, v2

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_numpy_matches_scalar(self, seed):
        g, topo, table, mats, prev, nxt, g1, v1, v2 = self._setup(seed)
        args = (topo.boundary_indices, topo.nbrs, topo.material, table.beta,
                table.BI, table.DI, table.F, table.D)
        a = nxt.copy()
        g1a, v1a, v2a = g1.copy(), v1.copy(), v2.copy()
        ks.fd_mm_boundary_scalar(a, prev, *args, g1a, v1a, v2a, g.courant)
        b = nxt.copy()
        g1b, v1b, v2b = g1.copy(), v1.copy(), v2.copy()
        kn.fd_mm_boundary(b, prev, *args, g1b, v1b, v2b, g.courant)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(g1a, g1b, atol=1e-12)
        np.testing.assert_allclose(v1a, v1b, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_eliminated_equals_implicit_solve(self, seed):
        """The kernel algebra of Listing 4 is the exact solution of the
        coupled implicit discretisation (DESIGN.md derivation)."""
        g, topo, table, mats, prev, nxt, g1, v1, v2 = self._setup(seed)
        a = nxt.copy()
        g1a, v1a, v2a = g1.copy(), v1.copy(), v2.copy()
        ks.fd_mm_boundary_scalar(a, prev, topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, table.BI,
                                 table.DI, table.F, table.D,
                                 g1a, v1a, v2a, g.courant)
        b = nxt.copy()
        g1b, v1b, v2b = g1.copy(), v1.copy(), v2.copy()
        beta_inf = np.array([m.beta_inf for m in mats])
        branch_mrk = [[(br.m, br.r, br.k) for br in m.branches]
                      for m in mats]
        ks.fd_mm_boundary_implicit_scalar(
            b, prev, topo.boundary_indices, topo.nbrs, topo.material,
            beta_inf, branch_mrk, g1b, v1b, v2b, g.courant)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(g1a, g1b, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(v1a, v1b, rtol=1e-10, atol=1e-10)

    def test_fi_limit_with_inert_branches(self):
        """Zero-coefficient branches make FD-MM equal FI-MM bitwise."""
        g, topo = make_room()
        rng = np.random.default_rng(11)
        prev, curr = random_states(g, topo, rng)
        K = topo.num_boundary_points
        mb = 2
        flat = [FDMaterial(f"m{i}", 0.1 * (i + 1), ()) for i in range(3)]
        table = MaterialTable.from_fd(flat, mb)
        nxt = np.zeros(g.num_points)
        kn.volume_step(prev, curr, nxt, topo.nbrs, g.shape, g.courant)
        a, b = nxt.copy(), nxt.copy()
        g1 = np.zeros(mb * K)
        v1 = np.zeros(mb * K)
        v2 = rng.standard_normal(mb * K)  # stale state must not matter
        kn.fd_mm_boundary(a, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, table.beta, table.BI, table.DI,
                          table.F, table.D, g1, v1, v2, g.courant)
        kn.fi_mm_boundary(b, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, table.beta, g.courant)
        np.testing.assert_allclose(a, b, atol=0)
        assert (v1 == 0).all()  # inert branches produce no velocity

    def test_branch_state_updated(self):
        g, topo, table, mats, prev, nxt, g1, v1, v2 = self._setup(2)
        g1_before = g1.copy()
        kn.fd_mm_boundary(nxt, prev, topo.boundary_indices, topo.nbrs,
                          topo.material, table.beta, table.BI, table.DI,
                          table.F, table.D, g1, v1, v2, g.courant)
        assert not np.allclose(g1, g1_before)
        assert not np.allclose(v1, 0)
