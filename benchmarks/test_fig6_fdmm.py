"""Figure 6 / Table VI: the FD-MM boundary kernel (3 ODE branches)."""

import numpy as np
import pytest
from conftest import SCALE, write_artifact

from repro.acoustics import kernels_numpy as kn
from repro.acoustics.lift_programs import fd_mm_boundary
from repro.bench.report import render_fig6
from repro.lift.codegen.arena import Workspace
from repro.lift.codegen.numpy_backend import compile_numpy


def test_fig6_artifact():
    write_artifact("fig6_table6_fdmm.txt", render_fig6(SCALE))


@pytest.fixture(scope="module")
def lift_kernel():
    return compile_numpy(fd_mm_boundary("double", 3).kernel,
                         "fd_mm_boundary")


@pytest.mark.parametrize("which", ["box", "dome"])
def test_bench_fdmm_lift_generated(benchmark, which, box_problem,
                                   dome_problem, lift_kernel):
    p = box_problem if which == "box" else dome_problem
    t = p.topo
    g = p.grid
    tab = p.fd_table
    K = t.num_boundary_points
    # kept across rounds, so what is timed is warm generated code (a call
    # without a workspace builds a cold arena every time)
    ws = Workspace("bench")

    def step():
        lift_kernel.fn(t.boundary_indices, t.material, t.nbrs, tab.beta,
                       tab.BI.reshape(-1), tab.DI.reshape(-1),
                       tab.F.reshape(-1), tab.D.reshape(-1),
                       p.nxt, p.prev, p.g1, p.v2, p.v1, g.courant, K,
                       N=p.N, M=tab.num_materials, _ws=ws)
        return p.nxt

    benchmark(step)


@pytest.mark.parametrize("which", ["box", "dome"])
def test_bench_fdmm_handwritten(benchmark, which, box_problem,
                                dome_problem):
    p = box_problem if which == "box" else dome_problem
    t = p.topo
    g = p.grid
    tab = p.fd_table

    def step():
        kn.fd_mm_boundary(p.nxt[:p.N], p.prev[:p.N], t.boundary_indices,
                          t.nbrs, t.material, tab.beta, tab.BI, tab.DI,
                          tab.F, tab.D, p.g1, p.v1, p.v2, g.courant)
        return p.nxt

    benchmark(step)


def test_generated_matches_handwritten(box_problem, lift_kernel):
    p = box_problem
    t = p.topo
    g = p.grid
    tab = p.fd_table
    K = t.num_boundary_points
    a = p.nxt.copy()
    g1a, v1a, v2a = p.g1.copy(), p.v1.copy(), p.v2.copy()
    lift_kernel.fn(t.boundary_indices, t.material, t.nbrs, tab.beta,
                   tab.BI.reshape(-1), tab.DI.reshape(-1),
                   tab.F.reshape(-1), tab.D.reshape(-1),
                   a, p.prev, g1a, v2a, v1a, g.courant, K,
                   N=p.N, M=tab.num_materials)
    b = p.nxt[:p.N].copy()
    g1b, v1b, v2b = p.g1.copy(), p.v1.copy(), p.v2.copy()
    kn.fd_mm_boundary(b, p.prev[:p.N], t.boundary_indices, t.nbrs,
                      t.material, tab.beta, tab.BI, tab.DI, tab.F, tab.D,
                      g1b, v1b, v2b, g.courant)
    np.testing.assert_allclose(a[:p.N], b, atol=1e-12)
    np.testing.assert_allclose(g1a, g1b, atol=1e-12)
    np.testing.assert_allclose(v1a, v1b, atol=1e-12)
