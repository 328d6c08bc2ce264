"""Shared fixtures for the benchmark suite.

Environment:

* ``REPRO_BENCH_SCALE`` — divide the paper's room dimensions (default 4:
  quick runs; set to 1 to regenerate the tables at full paper scale, as
  EXPERIMENTS.md does — allow a few minutes for voxelisation).

Each benchmark module both (a) measures the *real* execution speed of the
generated NumPy kernels with pytest-benchmark and (b) regenerates its
paper artefact via the virtual-GPU model, writing the comparison table to
``benchmarks/out/`` and echoing it to stdout.
"""

import os
import pathlib

import numpy as np
import pytest

from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.bench.rooms import room_bundle, room_topology

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "4"))

OUT_DIR = pathlib.Path(__file__).parent / "out"
OUT_DIR.mkdir(exist_ok=True)


def write_artifact(name: str, text: str) -> None:
    """Persist a regenerated table and echo it (survives pytest capture)."""
    path = OUT_DIR / name
    path.write_text(text)
    print(f"\n[artifact {path}]\n{text}")


@pytest.fixture(scope="session")
def scale() -> int:
    return SCALE


class BenchProblem:
    """A room + randomised states + material tables, ready for kernels."""

    def __init__(self, size: str, shape: str, scale: int, seed: int = 0):
        self.bundle = room_bundle(size, shape, scale)
        self.topo = room_topology(size, shape, scale)
        g = self.bundle.grid
        self.grid = g
        rng = np.random.default_rng(seed)
        N = g.num_points
        self.N = N
        self.guard = g.nx * g.ny
        ins = self.topo.room.inside_mask().reshape(-1)
        self.prev = np.zeros(N + self.guard)
        self.curr = np.zeros(N + self.guard)
        self.prev[:N][ins] = rng.standard_normal(int(ins.sum()))
        self.curr[:N][ins] = rng.standard_normal(int(ins.sum()))
        self.nxt = np.zeros(N + self.guard)
        self.nbrs_guarded = np.concatenate(
            [self.topo.nbrs, np.zeros(self.guard, np.int32)])
        self.fi_table = MaterialTable.from_fi(default_fi_materials(4))
        self.fd_table = MaterialTable.from_fd(default_fd_materials(4), 3)
        K = self.topo.num_boundary_points
        self.g1 = rng.standard_normal(3 * K)
        self.v1 = np.zeros(3 * K)
        self.v2 = rng.standard_normal(3 * K)

    @property
    def sizes(self):
        return dict(N=self.N, NP=self.N + self.guard,
                    K=self.topo.num_boundary_points,
                    M=self.fi_table.num_materials)


@pytest.fixture(scope="session")
def box_problem() -> BenchProblem:
    return BenchProblem("302", "box", SCALE)


@pytest.fixture(scope="session")
def dome_problem() -> BenchProblem:
    return BenchProblem("302", "dome", SCALE)
