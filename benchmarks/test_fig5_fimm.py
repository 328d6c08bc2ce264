"""Figure 5 / Table V: the FI-MM boundary kernel (box & dome)."""

import numpy as np
import pytest
from conftest import SCALE, write_artifact

from repro.acoustics import kernels_numpy as kn
from repro.acoustics.lift_programs import fi_mm_boundary
from repro.bench.report import render_fig5
from repro.lift.codegen.arena import Workspace
from repro.lift.codegen.numpy_backend import compile_numpy


def test_fig5_artifact():
    write_artifact("fig5_table5_fimm.txt", render_fig5(SCALE))


@pytest.fixture(scope="module")
def lift_kernel():
    return compile_numpy(fi_mm_boundary("double").kernel, "fi_mm_boundary")


@pytest.mark.parametrize("which", ["box", "dome"])
def test_bench_fimm_lift_generated(benchmark, which, box_problem,
                                   dome_problem, lift_kernel):
    p = box_problem if which == "box" else dome_problem
    t = p.topo
    g = p.grid
    # kept across rounds, so what is timed is warm generated code (a call
    # without a workspace builds a cold arena every time)
    ws = Workspace("bench")

    def step():
        lift_kernel.fn(t.boundary_indices, t.material, t.nbrs,
                       p.fi_table.beta, p.nxt, p.prev, g.courant,
                       N=p.N, K=t.num_boundary_points,
                       M=p.fi_table.num_materials, _ws=ws)
        return p.nxt

    benchmark(step)


@pytest.mark.parametrize("which", ["box", "dome"])
def test_bench_fimm_handwritten(benchmark, which, box_problem,
                                dome_problem):
    p = box_problem if which == "box" else dome_problem
    t = p.topo
    g = p.grid

    def step():
        kn.fi_mm_boundary(p.nxt[:p.N], p.prev[:p.N], t.boundary_indices,
                          t.nbrs, t.material, p.fi_table.beta, g.courant)
        return p.nxt

    benchmark(step)


def test_generated_matches_handwritten(box_problem, lift_kernel):
    p = box_problem
    t = p.topo
    g = p.grid
    a = p.nxt.copy()
    lift_kernel.fn(t.boundary_indices, t.material, t.nbrs, p.fi_table.beta,
                   a, p.prev, g.courant, N=p.N, K=t.num_boundary_points,
                   M=p.fi_table.num_materials)
    b = p.nxt[:p.N].copy()
    kn.fi_mm_boundary(b, p.prev[:p.N], t.boundary_indices, t.nbrs,
                      t.material, p.fi_table.beta, g.courant)
    np.testing.assert_allclose(a[:p.N], b, atol=1e-13)
