"""Listing 5's interface, built in one place: ``host_inputs`` binds a
simulation's own arrays, and a device or an in-process pool fed by it
steps the bits the simulation steps."""

import numpy as np
import pytest

from repro.acoustics import DomeRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.acoustics.lift_programs import LEAPFROG, host_inputs
from repro.gpu import MultiGPU, NVIDIA_TITAN_BLACK, VirtualGPU

STEPS = 6


def _sim(scheme, precision="double"):
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                                   scheme=scheme, precision=precision,
                                   backend="virtual_gpu"))
    sim.add_impulse("center")
    return sim


def test_a_simulations_inputs_are_its_live_arrays():
    sim = _sim("fd_mm")
    sim.run(3)              # the levels have traded places
    inputs, sizes = sim._vgpu_io()
    assert inputs["prev1_h"] is sim.curr
    assert inputs["prev2_h"] is sim.prev
    assert inputs["g1_h"] is sim.g1
    assert inputs["v2_h"] is inputs["v1_h"] is sim.v
    # the topology's one-byte counts, not a widened copy
    assert inputs["neighbors"] is sim.topology.nbrs_guarded
    assert inputs["neighbors"].dtype == np.int8
    g = sim.grid
    assert sizes == dict(N=g.num_points, NP=g.num_points + g.nx * g.ny,
                         K=sim.topology.num_boundary_points,
                         M=sim.table.num_materials)


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_execute_many_fed_by_the_builder_matches_the_simulation(
        scheme, precision):
    """One device's and an in-process pool's ``execute_many``, fed by
    ``host_inputs`` with copies of a simulation's state, end where the
    simulation's own run ends, bit for bit."""
    sim = _sim(scheme, precision)
    sim.run(STEPS)          # the wave reaches the walls
    start = [a.copy() for a in (sim.prev, sim.curr, sim.g1, sim.v)]
    sim.run(STEPS)
    N = sim._N
    for gpu in (VirtualGPU(NVIDIA_TITAN_BLACK), MultiGPU("TitanBlack:2")):
        inputs, sizes = host_inputs(scheme, sim.grid, sim.topology,
                                    sim.table, *(a.copy() for a in start))
        res = gpu.execute_many(sim._host_program, inputs, sizes, STEPS,
                               rotations=[LEAPFROG])
        assert np.array_equal(res.buffers["final:prev1_h"][:N], sim.curr[:N])
        assert np.array_equal(res.buffers["final:prev2_h"][:N], sim.prev[:N])
        if scheme == "fd_mm":
            assert np.any(sim.g1) and np.any(sim.v)
            assert np.array_equal(res.buffers["final:g1_h"], sim.g1)
            assert np.array_equal(res.buffers["final:v2_h"], sim.v)
