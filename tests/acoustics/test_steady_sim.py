"""Simulation-level zero-allocation and dtype discipline of the
``numpy-steady`` backend, whose two-level step keeps one workspace per
program (its trajectories are pinned against every
other backend, and the reference interpreter, by
``test_backend_matrix.py``).
"""

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.materials import (default_fd_materials,
                                       default_fi_materials)


def make_sim(scheme, precision, grid=(12, 10, 9)):
    mats = (default_fd_materials(3) if scheme == "fd_mm"
            else default_fi_materials(3))
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(*grid), DomeRoom()), scheme=scheme,
        backend="numpy-steady", precision=precision, materials=mats))
    sim.add_impulse("center")
    return sim


@pytest.mark.parametrize("scheme", ["fi", "fd_mm"])
def test_steady_stepping_is_allocation_free(scheme):
    """Warm up, freeze every workspace, keep stepping: no full-grid
    allocation may happen after warm-up (frozen arenas raise)."""
    sim = make_sim(scheme, "double")
    sim.run(3)
    assert sim._step.tier == "numpy"
    workspaces = sim._step.fn.workspaces()
    assert len(workspaces) == (1 if scheme == "fi" else 2)
    for ws in workspaces:
        ws.freeze()
    sim.run(10)                              # must not raise
    assert all(ws.hits > 0 for ws in workspaces)


def test_single_precision_sim_state_stays_float32():
    sim = make_sim("fi_mm", "single")
    sim.run(5)
    assert sim.curr.dtype == np.float32
    workspaces = sim._step.fn.workspaces()
    assert len(workspaces) == 2
    for ws in workspaces:
        for name, buf in ws._slots.items():
            assert buf.dtype != np.float64, (
                f"{ws.label}: slot {name!r} upcast to float64")
