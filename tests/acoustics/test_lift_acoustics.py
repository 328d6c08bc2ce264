"""Tests for the LIFT acoustics programs (paper Listings 5–8).

Each program is validated through all code paths: interpreter, NumPy
backend, and (for structure) the OpenCL generator — against the scalar
transliterations of the paper's C listings.
"""

import numpy as np
import pytest

from repro.acoustics import kernels_scalar as ks
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (LiftKernelProgram, fd_mm_boundary,
                                           fi_fused_3d, fi_fused_flat,
                                           fi_mm_boundary, let,
                                           two_kernel_host, volume_kernel)
from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology
from repro.lift.ast import Param
from repro.lift.codegen.numpy_backend import compile_numpy
from repro.lift.interp import Interp
from repro.lift.type_inference import infer
from repro.lift.types import Double, Float


@pytest.fixture(scope="module")
def setup():
    g = Grid3D(12, 10, 9)
    topo = build_topology(Room(g, DomeRoom()), num_materials=3)
    rng = np.random.default_rng(42)
    N = g.num_points
    guard = g.nx * g.ny
    ins = topo.room.inside_mask().reshape(-1)

    def state():
        a = np.zeros(N + guard)
        a[:N][ins] = rng.standard_normal(int(ins.sum()))
        return a

    return dict(g=g, topo=topo, rng=rng, N=N, guard=guard,
                prev=state(), curr=state(),
                nbrs_guarded=np.concatenate(
                    [topo.nbrs, np.zeros(guard, np.int32)]))


class TestProgramConstruction:
    @pytest.mark.parametrize("builder", [fi_fused_3d, fi_fused_flat,
                                         volume_kernel, fi_mm_boundary])
    def test_typechecks(self, builder):
        prog = builder("double")
        assert isinstance(prog, LiftKernelProgram)
        infer(prog.kernel)  # must not raise

    def test_fd_mm_typechecks(self):
        infer(fd_mm_boundary("double", 3).kernel)

    def test_precision_selects_scalar(self):
        assert fi_mm_boundary("single").dtype is Float
        assert fi_mm_boundary("double").dtype is Double

    def test_host_program_builders(self):
        for scheme in ("fi_mm", "fd_mm"):
            hp = two_kernel_host(scheme, "double")
            infer(hp.program)

    def test_host_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            two_kernel_host("pml", "double")

    def test_let_evaluates_once(self):
        from repro.lift.ast import BinOp
        x = Param("x", Double)
        e = let([(x, BinOp("+", 1.0, 2.0))], BinOp("*", x, x))
        assert Interp().run(
            __import__("repro.lift.ast", fromlist=["Lambda"]).Lambda([], e)
        ) == 9.0


class TestVolumeKernel:
    def test_numpy_backend_vs_scalar(self, setup):
        s = setup
        g = s["g"]
        nxt_ref = np.zeros(s["N"])
        ks.volume_step_scalar(s["prev"][:s["N"]], s["curr"][:s["N"]],
                              nxt_ref, s["topo"].nbrs, g.nx, g.ny, g.nz,
                              g.courant)
        nk = compile_numpy(volume_kernel("double").kernel, "vol")
        out = np.zeros(s["N"] + s["guard"])
        nk.fn(s["prev"], s["curr"], s["nbrs_guarded"], g.courant, g.nx,
              g.nx * g.ny, N=s["N"], NP=s["N"] + s["guard"], out=out)
        np.testing.assert_allclose(out[:s["N"]], nxt_ref, atol=1e-13)

    def test_interp_vs_scalar(self, setup):
        s = setup
        g = s["g"]
        nxt_ref = np.zeros(s["N"])
        ks.volume_step_scalar(s["prev"][:s["N"]], s["curr"][:s["N"]],
                              nxt_ref, s["topo"].nbrs, g.nx, g.ny, g.nz,
                              g.courant)
        interp = Interp(sizes={"N": s["N"], "NP": s["N"] + s["guard"]})
        out = interp.run(volume_kernel("double").kernel, s["prev"],
                         s["curr"], s["nbrs_guarded"], g.courant, g.nx,
                         g.nx * g.ny)
        np.testing.assert_allclose(np.asarray(out), nxt_ref, atol=1e-13)


class TestFusedKernels:
    def test_flat_vs_scalar(self, setup):
        s = setup
        g = s["g"]
        beta = 0.35
        ref = np.zeros(s["N"])
        ks.fi_fused_step_scalar_nbrs(s["prev"][:s["N"]], s["curr"][:s["N"]],
                                     ref, s["topo"].nbrs, g.nx, g.ny, g.nz,
                                     g.courant, beta)
        nk = compile_numpy(fi_fused_flat("double").kernel, "fused")
        out = np.zeros(s["N"] + s["guard"])
        nk.fn(s["prev"], s["curr"], s["nbrs_guarded"], g.courant, beta,
              g.nx, g.nx * g.ny, N=s["N"], NP=s["N"] + s["guard"], out=out)
        np.testing.assert_allclose(out[:s["N"]], ref, atol=1e-13)

    def test_3d_vs_scalar_interior(self, setup):
        s = setup
        g = s["g"]
        beta = 0.35
        ref = np.zeros(s["N"])
        ks.fi_fused_step_scalar_nbrs(s["prev"][:s["N"]], s["curr"][:s["N"]],
                                     ref, s["topo"].nbrs, g.nx, g.ny, g.nz,
                                     g.courant, beta)
        nk = compile_numpy(fi_fused_3d("double").kernel, "fused3d")
        out = np.zeros((g.nz - 2, g.ny - 2, g.nx - 2))
        nk.fn(s["prev"][:s["N"]].reshape(g.shape),
              s["curr"][:s["N"]].reshape(g.shape),
              s["topo"].nbrs.reshape(g.shape), g.courant, beta,
              NX=g.nx, NY=g.ny, NZ=g.nz, out=out)
        ref_int = ref.reshape(g.shape)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(out, ref_int, atol=1e-13)

    def test_flat_and_3d_agree(self, setup):
        s = setup
        g = s["g"]
        nk_flat = compile_numpy(fi_fused_flat("double").kernel, "f")
        out_flat = np.zeros(s["N"] + s["guard"])
        nk_flat.fn(s["prev"], s["curr"], s["nbrs_guarded"], g.courant, 0.2,
                   g.nx, g.nx * g.ny, N=s["N"], NP=s["N"] + s["guard"],
                   out=out_flat)
        nk_3d = compile_numpy(fi_fused_3d("double").kernel, "f3")
        out_3d = np.zeros((g.nz - 2, g.ny - 2, g.nx - 2))
        nk_3d.fn(s["prev"][:s["N"]].reshape(g.shape),
                 s["curr"][:s["N"]].reshape(g.shape),
                 s["topo"].nbrs.reshape(g.shape), g.courant, 0.2,
                 NX=g.nx, NY=g.ny, NZ=g.nz, out=out_3d)
        flat_int = out_flat[:s["N"]].reshape(g.shape)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(out_3d, flat_int, atol=1e-13)


class TestBoundaryKernels:
    def _volume(self, s):
        g = s["g"]
        nxt = np.zeros(s["N"])
        ks.volume_step_scalar(s["prev"][:s["N"]], s["curr"][:s["N"]], nxt,
                              s["topo"].nbrs, g.nx, g.ny, g.nz, g.courant)
        return nxt

    def test_fi_mm_numpy_backend(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        table = MaterialTable.from_fi(default_fi_materials(3))
        nxt = self._volume(s)
        ref = nxt.copy()
        ks.fi_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, g.courant)
        nk = compile_numpy(fi_mm_boundary("double").kernel, "fimm")
        buf = np.concatenate([nxt, np.zeros(s["guard"])])
        nk.fn(topo.boundary_indices, topo.material, topo.nbrs, table.beta,
              buf, s["prev"], g.courant, N=s["N"],
              K=topo.num_boundary_points, M=table.num_materials)
        np.testing.assert_allclose(buf[:s["N"]], ref, atol=1e-13)

    def test_fi_mm_interp(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        table = MaterialTable.from_fi(default_fi_materials(3))
        nxt = self._volume(s)
        ref = nxt.copy()
        ks.fi_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, g.courant)
        buf = nxt.copy()
        interp = Interp(sizes={"N": s["N"], "K": topo.num_boundary_points,
                               "M": table.num_materials})
        interp.run(fi_mm_boundary("double").kernel, topo.boundary_indices,
                   topo.material, topo.nbrs, table.beta, buf,
                   s["prev"][:s["N"]], g.courant)
        np.testing.assert_allclose(buf, ref, atol=1e-13)

    def test_fd_mm_numpy_backend(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        rng = np.random.default_rng(9)
        table = MaterialTable.from_fd(default_fd_materials(3), 3)
        K = topo.num_boundary_points
        nxt = self._volume(s)
        g1 = rng.standard_normal(3 * K)
        v2 = rng.standard_normal(3 * K)
        ref = nxt.copy()
        g1r, v1r, v2r = g1.copy(), np.zeros(3 * K), v2.copy()
        ks.fd_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, table.BI,
                                 table.DI, table.F, table.D, g1r, v1r, v2r,
                                 g.courant)
        nk = compile_numpy(fd_mm_boundary("double", 3).kernel, "fdmm")
        buf = np.concatenate([nxt, np.zeros(s["guard"])])
        g1n, v1n, v2n = g1.copy(), np.zeros(3 * K), v2.copy()
        nk.fn(topo.boundary_indices, topo.material, topo.nbrs, table.beta,
              table.BI.reshape(-1), table.DI.reshape(-1),
              table.F.reshape(-1), table.D.reshape(-1), buf, s["prev"],
              g1n, v2n, v1n, g.courant, K, N=s["N"],
              M=table.num_materials)
        np.testing.assert_allclose(buf[:s["N"]], ref, atol=1e-12)
        np.testing.assert_allclose(g1n, g1r, atol=1e-12)
        np.testing.assert_allclose(v1n, v1r, atol=1e-12)

    def test_fd_mm_interp(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        rng = np.random.default_rng(10)
        table = MaterialTable.from_fd(default_fd_materials(3), 3)
        K = topo.num_boundary_points
        nxt = self._volume(s)
        g1 = rng.standard_normal(3 * K)
        v2 = rng.standard_normal(3 * K)
        ref = nxt.copy()
        g1r, v1r, v2r = g1.copy(), np.zeros(3 * K), v2.copy()
        ks.fd_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, table.BI,
                                 table.DI, table.F, table.D, g1r, v1r, v2r,
                                 g.courant)
        buf = nxt.copy()
        g1i, v1i, v2i = g1.copy(), np.zeros(3 * K), v2.copy()
        interp = Interp(sizes={"N": s["N"], "K": K,
                               "M": table.num_materials})
        interp.run(fd_mm_boundary("double", 3).kernel,
                   topo.boundary_indices, topo.material, topo.nbrs,
                   table.beta, table.BI.reshape(-1), table.DI.reshape(-1),
                   table.F.reshape(-1), table.D.reshape(-1), buf,
                   s["prev"][:s["N"]], g1i, v2i, v1i, g.courant, K)
        np.testing.assert_allclose(buf, ref, atol=1e-12)
        np.testing.assert_allclose(g1i, g1r, atol=1e-12)
        np.testing.assert_allclose(v1i, v1r, atol=1e-12)


class TestHostProgramInterpreted:
    """The reference interpreter executes the *entire* Listing-5 host
    program — transfers, two kernel launches, host-level in-place WriteTo —
    and matches the hand-written two-kernel pipeline exactly."""

    def test_fi_mm_host_program(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        table = MaterialTable.from_fi(default_fi_materials(3))
        hp = two_kernel_host("fi_mm", "double")
        interp = Interp(sizes=dict(N=s["N"], NP=s["N"] + s["guard"],
                                   K=topo.num_boundary_points,
                                   M=table.num_materials))
        out = interp.run(hp.program, topo.boundary_indices, topo.material,
                         s["nbrs_guarded"], table.beta, s["curr"],
                         s["prev"], g.courant, g.nx, g.nx * g.ny)
        ref = np.zeros(s["N"])
        ks.volume_step_scalar(s["prev"][:s["N"]], s["curr"][:s["N"]], ref,
                              topo.nbrs, g.nx, g.ny, g.nz, g.courant)
        ks.fi_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, g.courant)
        np.testing.assert_allclose(np.asarray(out)[:s["N"]], ref,
                                   atol=1e-13)

    def test_fd_mm_host_program(self, setup):
        s = setup
        g, topo = s["g"], s["topo"]
        rng = np.random.default_rng(12)
        table = MaterialTable.from_fd(default_fd_materials(3), 3)
        K = topo.num_boundary_points
        g1 = rng.standard_normal(3 * K)
        v2 = rng.standard_normal(3 * K)
        hp = two_kernel_host("fd_mm", "double", 3)
        interp = Interp(sizes=dict(N=s["N"], NP=s["N"] + s["guard"], K=K,
                                   M=table.num_materials))
        g1i, v1i, v2i = g1.copy(), np.zeros(3 * K), v2.copy()
        # host parameter order: boundaries, material, neighbors, beta,
        # prev1 (t), prev2 (t-1), l, Nx, NxNy, then the FD extras
        out = interp.run(hp.program, topo.boundary_indices, topo.material,
                         s["nbrs_guarded"], table.beta,
                         s["curr"], s["prev"], g.courant, g.nx,
                         g.nx * g.ny,
                         table.BI.reshape(-1), table.DI.reshape(-1),
                         table.F.reshape(-1), table.D.reshape(-1),
                         g1i, v2i, v1i, K)
        ref = np.zeros(s["N"])
        ks.volume_step_scalar(s["prev"][:s["N"]], s["curr"][:s["N"]], ref,
                              topo.nbrs, g.nx, g.ny, g.nz, g.courant)
        g1r, v1r, v2r = g1.copy(), np.zeros(3 * K), v2.copy()
        ks.fd_mm_boundary_scalar(ref, s["prev"][:s["N"]],
                                 topo.boundary_indices, topo.nbrs,
                                 topo.material, table.beta, table.BI,
                                 table.DI, table.F, table.D, g1r, v1r,
                                 v2r, g.courant)
        np.testing.assert_allclose(np.asarray(out)[:s["N"]], ref,
                                   atol=1e-12)
        np.testing.assert_allclose(g1i, g1r, atol=1e-12)
        np.testing.assert_allclose(v1i, v1r, atol=1e-12)
