"""Simulation-level zero-allocation and dtype discipline of the
``numpy-steady`` backend, whose two-level step keeps one workspace per
program (its trajectories are pinned against every
other backend, and the reference interpreter, by
``test_backend_matrix.py``).
"""

import threading

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



@pytest.mark.parametrize("scheme", ["fi", "fd_mm"])
def test_simulations_of_one_room_step_at_once(scheme):
    """Simulations of one room share one step, and stepping them on two
    threads at once computes what stepping them one after the other
    does: a caller never steps in another's workspaces."""
    ref = [make_sim(scheme, "double", (40, 36, 30)) for _ in range(2)]
    for sim in ref:
        sim.run(30)
    sims = [make_sim(scheme, "double", (40, 36, 30)) for _ in range(2)]
    assert sims[0]._step is sims[1]._step
    start = threading.Barrier(2)
    errors = []

    def run(sim):
        start.wait()
        try:
            sim.run(30)
        except Exception as exc:                # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in sims]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for sim, r in zip(sims, ref):
        assert np.array_equal(sim.curr, r.curr)
        assert np.array_equal(sim.prev, r.prev)
