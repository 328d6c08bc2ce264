"""Figure 4 / Table IV: the naive frequency-independent (FI) kernel.

Regenerates the paper's device x size x impl x precision matrix through
the virtual-GPU model, and benchmarks the *real* execution speed of the
LIFT-generated NumPy kernel against the hand-written NumPy baseline.
"""

import numpy as np
import pytest
from conftest import SCALE, write_artifact

from repro.acoustics import kernels_numpy as kn
from repro.acoustics.lift_programs import fi_fused_flat
from repro.bench.report import render_fig4
from repro.lift.codegen.arena import Workspace
from repro.lift.codegen.numpy_backend import compile_numpy


def test_fig4_artifact():
    write_artifact("fig4_table4_fi.txt", render_fig4(SCALE))


@pytest.fixture(scope="module")
def lift_kernel():
    return compile_numpy(fi_fused_flat("double").kernel, "fi_fused_flat")


def test_bench_fi_lift_generated(benchmark, box_problem, lift_kernel):
    p = box_problem
    g = p.grid
    # kept across rounds, so what is timed is warm generated code (a call
    # without a workspace builds a cold arena every time)
    ws = Workspace("bench")

    def step():
        lift_kernel.fn(p.prev, p.curr, p.nbrs_guarded, g.courant, 0.3,
                       g.nx, g.nx * g.ny, N=p.N, NP=p.N + p.guard,
                       out=p.nxt, _ws=ws)
        return p.nxt

    out = benchmark(step)
    assert np.isfinite(out[:p.N]).all()


def test_bench_fi_handwritten(benchmark, box_problem):
    p = box_problem
    g = p.grid

    def step():
        kn.fi_fused_step(p.prev[:p.N], p.curr[:p.N], p.nxt[:p.N],
                         p.topo.nbrs, g.shape, g.courant, 0.3)
        return p.nxt

    out = benchmark(step)
    assert np.isfinite(out[:p.N]).all()


def test_generated_matches_handwritten(box_problem, lift_kernel):
    """The two benchmarked kernels compute the same thing."""
    p = box_problem
    g = p.grid
    a = np.zeros(p.N + p.guard)
    lift_kernel.fn(p.prev, p.curr, p.nbrs_guarded, g.courant, 0.3,
                   g.nx, g.nx * g.ny, N=p.N, NP=p.N + p.guard, out=a)
    b = np.zeros(p.N)
    kn.fi_fused_step(p.prev[:p.N], p.curr[:p.N], b, p.topo.nbrs, g.shape,
                     g.courant, 0.3)
    np.testing.assert_allclose(a[:p.N], b, atol=1e-13)
