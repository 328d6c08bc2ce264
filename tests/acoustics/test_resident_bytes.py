"""What a compiled simulation keeps resident, counted buffer by buffer.

A two-level step needs two time levels and one byte of ``nbrs`` per
voxel, all three over ``N + nx·ny`` points (the zero guard plane), plus
the arrays of the ``K`` boundary points and the per-material tables.
The FD-MM branch state is two arrays of ``MB`` values a boundary point,
``g1`` and the velocity ``v``: the step writes the new velocity over
the old, so no second velocity buffer is reachable on any path.
The topology's guarded ``nbrs`` is the array the step binds, and the
inside mask is voxelised once, by the constructor, and then dropped:
placing sources and receivers tests one point, not a volume.

The tally walks the simulation's object graph (``repro`` objects,
containers, bound methods and closures) and adds up the distinct NumPy
buffers it reaches — a structural count, not an RSS reading.  A
compiled step is process-wide (``VirtualGPU.compile_step``) and keeps a
block table per index array that steps it; of those, the simulation
keeps the one of its own boundary points.
"""

import types
import warnings

import numpy as np
import pytest

from repro.acoustics import (BoxRoom, DomeRoom, Grid3D, Room, RoomSimulation,
                             SimConfig, geometry)
from repro.lift.codegen import loops
from repro.lift.codegen.loops import available_tiers

pytestmark = pytest.mark.skipif(available_tiers() == ("python",),
                                reason="no compiled loop tier")

#: label -> (SimConfig keywords, the stepping path it must take)
PATHS = {
    "numba": (dict(backend="numba"), "fused-step"),
    "vgpu-resident": (dict(backend="virtual_gpu"), "resident"),
}


def resident_buffers(sim) -> list[np.ndarray]:
    """The distinct buffers (root bases, scalars left out) reachable from
    ``sim``."""
    seen, bufs = set(), {}
    stack = [sim]
    own = sim.topology.boundary_indices
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, loops._StepDispatch):
            stack.extend(v for k, v in vars(obj).items() if k != "blocks")
            stack.extend(e[2:] for e in obj.blocks.values()
                         if e[0]() is own)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if obj.ndim:
                bufs[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ()
                         if c.cell_contents is not None)
        elif type(obj).__module__.startswith("repro"):
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, k) for k in
                         getattr(type(obj), "__slots__", ()) if hasattr(obj, k))
    return list(bufs.values())


def _budget(sim) -> int:
    """Two levels and the guarded counts, then the boundary points'
    arrays (``g1`` and ``v``: two of ``MB`` values each), the material
    tables and (with a boundary program) the step's per-Z-plane block
    table."""
    g, t, item = sim.grid, sim.topology, sim.curr.itemsize
    K, MB = t.num_boundary_points, sim.table.num_branches
    total = (sim._N + sim._guard) * (2 * item + 1)
    total += K * (t.boundary_indices.itemsize + t.material.itemsize
                  + 2 * MB * item)
    total += sum(getattr(sim.table, a).nbytes
                 for a in ("beta", "BI", "DI", "F", "D"))
    if sim.config.scheme != "fi":
        total += K * item + 8 * (g.nz + 1)   # saved old values, _kb
    return total


def _sim(path, scheme, precision, shape, monkeypatch, dims=(20, 16, 12)):
    calls = []
    voxelize = geometry.voxelize
    monkeypatch.setattr(geometry, "voxelize",
                        lambda *a: calls.append(a) or voxelize(*a))
    kw, expected = PATHS[path]
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), shape()),
                                   scheme=scheme, precision=precision, **kw))
    assert len(calls) == 1, "the constructor voxelises once"
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    sim.add_receiver("far", "center")
    assert len(calls) == 1, "placing a point builds no volume"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sim.run(2)
    assert len(calls) == 1
    assert sim._path == expected
    return sim


@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fd_mm"])
@pytest.mark.parametrize("path", list(PATHS))
def test_one_metadata_volume(path, scheme, precision, shape, monkeypatch):
    sim = _sim(path, scheme, precision, shape, monkeypatch)
    total = sim._N + sim._guard
    bufs = resident_buffers(sim)
    volumes = [b for b in bufs if b.size >= sim._N]
    ints = [b for b in volumes if b.dtype.kind in "iu"]
    assert [b.dtype for b in ints] == [np.int8]
    assert ints[0].size == total
    assert not [b for b in volumes if b.dtype == bool]
    assert sorted(b.dtype.kind for b in volumes) == ["f", "f", "i"]
    assert all(b.size == total for b in volumes)
    assert np.shares_memory(sim.topology.nbrs, sim._nbrs_guarded)
    assert sim._nbrs_guarded is sim.topology.nbrs_guarded
    assert not sim._nbrs_guarded[sim._N:].any()
    assert sum(b.nbytes for b in bufs) == _budget(sim)


def test_scale2_room_holds_17_bytes_per_voxel(monkeypatch):
    """The paper's room at scale 2 (151 x 101 x 76), fd_mm in double:
    17 bytes a voxel of volume arrays, 16 of them the two levels."""
    sim = _sim("numba", "fd_mm", "double", BoxRoom, monkeypatch,
               dims=(151, 101, 76))
    volumes = [b for b in resident_buffers(sim) if b.size >= sim._N]
    assert sum(b.nbytes for b in volumes) == 17 * (sim._N + sim._guard)
