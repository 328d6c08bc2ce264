"""``nbrs`` is stored once, in one byte per point.

The neighbour counts are 0-6.  ``build_topology`` produces them as
``int8``, ``RoomSimulation`` keeps one guarded array of them, and every
backend reads that array: the LIFT programs still declare ``Int`` (the
storage width is a host binding, not an IR type), so each executable
emitter types the parameter from the bound argument and widens on load.
Results may not depend on the width — pinned here against the same
simulation fed ``int32`` counts — and the bytes a step must move
(:meth:`ArenaProgram.min_bytes`) shrink with it.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.acoustics import (BoxRoom, DomeRoom, Grid3D, Room, RoomSimulation,
                             SimConfig, build_topology)
from repro.acoustics.topology import box_nbrs_closed_form, compute_nbrs
from repro.lift.codegen.loops import available_tiers

#: label -> (SimConfig keywords, REPRO_LOOP_TIER or None)
PATHS = {
    "numpy": (dict(backend="numpy"), None),
    "numpy-steady": (dict(backend="numpy-steady"), None),
    "loops-cc": (dict(backend="numba"), "cc"),
    "loops-python": (dict(backend="numba"), "python"),
    "loops-numba": (dict(backend="numba"), "numba"),
    "vgpu-resident": (dict(backend="virtual_gpu"), None),
    "vgpu-one-shot": (dict(backend="virtual_gpu", resilient=True), None),
    "lift_interp": (dict(backend="lift_interp"), None),
}


def _run(path, scheme, precision, shape, nbrs_dtype, monkeypatch):
    kw, tier = PATHS[path]
    if tier is not None:
        if tier not in available_tiers():
            pytest.skip(f"no {tier} tier on this host")
        monkeypatch.setenv("REPRO_LOOP_TIER", tier)
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(10, 9, 8), shape()),
                                   scheme=scheme, precision=precision, **kw))
    assert sim._nbrs_guarded.dtype == np.int8
    assert sim.nbrs.base is sim._nbrs_guarded        # one array, one view
    sim._nbrs_guarded = sim._nbrs_guarded.astype(nbrs_dtype)
    sim.nbrs = sim._nbrs_guarded[:sim._N]
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sim.run(5)
    return sim


@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
@pytest.mark.parametrize("path", list(PATHS))
def test_results_do_not_depend_on_the_storage_width(path, scheme, precision,
                                                    shape, monkeypatch):
    narrow, wide = (_run(path, scheme, precision, shape, dt, monkeypatch)
                    for dt in (np.int8, np.int32))
    for name in ("curr", "prev", "g1", "v1", "v2"):
        assert np.array_equal(getattr(narrow, name), getattr(wide, name)), name
    assert np.any(narrow.curr != 0)
    assert np.array_equal(narrow.receiver_signal("mic"),
                          wide.receiver_signal("mic"))
    assert narrow.modelled_gpu_time_ms == wide.modelled_gpu_time_ms


# -- topology ---------------------------------------------------------------

def test_topology_counts_are_one_byte():
    grid = Grid3D(12, 10, 9)
    topo = build_topology(Room(grid, BoxRoom()))
    assert topo.nbrs.dtype == np.int8 and topo.nbrs.shape == (grid.num_points,)
    assert np.array_equal(topo.nbrs, box_nbrs_closed_form(grid))
    dome = build_topology(Room(grid, DomeRoom()))
    assert dome.nbrs.dtype == np.int8 and dome.nbrs.max() == 6
    inside = dome.room.inside_mask().reshape(-1)
    assert np.all(dome.nbrs[~inside] == 0)
    b = dome.boundary_indices
    assert np.array_equal(b, np.flatnonzero(inside & (dome.nbrs < 6)))


def test_compute_nbrs_builds_no_widened_volume():
    inside = np.zeros((40, 40, 40), dtype=bool)
    inside[1:-1, 1:-1, 1:-1] = True
    tracemalloc.start()
    try:
        compute_nbrs(inside)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result is one byte a point; an int32 copy of the mask and an
    # int32 accumulator were eight
    assert peak < 2 * inside.size


# -- bytes a step must move -------------------------------------------------

def _ledger_formula(sim) -> int:
    """``benchmarks/perf/workloads.computed_mb_per_step``, in bytes."""
    n, item = sim.grid.num_points, sim.curr.itemsize
    total = n * (3 * item + sim.nbrs.itemsize)
    if sim.config.scheme != "fi":
        t = sim.topology
        total += t.num_boundary_points * (
            t.boundary_indices.itemsize + t.material.itemsize
            + sim.nbrs.itemsize + 3 * item)
        if sim.config.scheme == "fd_mm":
            total += 5 * sim.g1.size * item
    return total


def _step_min_bytes(sim) -> int:
    """Σ ``program.min_bytes(bound)`` over the programs one compiled step
    runs, with the arguments the simulation really binds."""
    total = []
    step, dispatch = sim._step, sim._step.fn

    def recording(**args):
        total.extend(p.min_bytes(b)
                     for p, b in zip(step.programs, step.bind(args)))
        return dispatch(**args)

    step.fn = recording
    try:
        sim.step()
    finally:
        step.fn = dispatch
    return sum(total)


@pytest.mark.parametrize("scheme, mb_int32, mb_int8", [
    ("fi", 259.6, 231.8), ("fi_mm", 269.3, 240.6), ("fd_mm", 301.3, 272.7)])
def test_min_bytes_against_the_ledgers_formula(scheme, mb_int32, mb_int8):
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(20, 14, 12), BoxRoom()),
                                   scheme=scheme, backend="numba"))
    # where the hand formula and the program differ: the formula leaves
    # out the coefficient tables (read once each), and for fd_mm it
    # counts five passes over a branch-state array where the program
    # makes four (g1 read and written, v2 read, v1 only written)
    correction = sim.table.beta.nbytes if scheme != "fi" else 0
    if scheme == "fd_mm":
        correction += sum(getattr(sim.table, t).nbytes
                          for t in ("BI", "DI", "F", "D")) - sim.v1.nbytes
    narrow = _step_min_bytes(sim)
    assert narrow == _ledger_formula(sim) + correction
    sim._nbrs_guarded = sim._nbrs_guarded.astype(np.int32)
    sim.nbrs = sim._nbrs_guarded[:sim._N]
    wide = _step_min_bytes(sim)
    assert wide == _ledger_formula(sim) + correction
    k = sim.topology.num_boundary_points if scheme != "fi" else 0
    assert wide - narrow == 3 * (sim._N + k)

    # the same formula on the paper's 302 x 202 x 152 box (K = the
    # shell of its 300 x 200 x 150 interior): the ledger's figures, MB
    n = 302 * 202 * 152
    k = 0 if scheme == "fi" else 300 * 200 * 150 - 298 * 198 * 148
    for nbrs_item, mb in ((4, mb_int32), (1, mb_int8)):
        total = n * (3 * 8 + nbrs_item) + k * (4 + 4 + nbrs_item + 3 * 8)
        if scheme == "fd_mm":
            total += 5 * 3 * k * 8
        assert round(total / 1e6, 1) == mb
