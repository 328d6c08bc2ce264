"""One Listing-5 test problem for the runtime, shard and observability
tests: a room's seeded interior state, bound to the scheme's compiled
host program by :func:`repro.acoustics.lift_programs.host_inputs` —
what a simulation binds, so tests run what production runs."""

import numpy as np

from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import compiled_host, host_inputs
from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology


def listing5_problem(scheme="fi_mm", dims=(14, 12, 10), seed=5,
                     branch_seed=None):
    """The double-precision host program, inputs and sizes of ``scheme``
    on a dome room.

    ``prev`` and then ``curr`` take standard-normal values at the
    room's interior points from ``default_rng(seed)`` (zeros elsewhere
    and on the guard plane).  For ``fd_mm``, ``g1`` and then the branch
    velocity take standard-normal values from ``default_rng(branch_seed)``
    (zeros when it is None).  Returns a dict with ``host``, ``inputs``,
    ``sizes``, ``N``, ``guard``, ``grid``, ``topo`` and ``table``."""
    g = Grid3D(*dims)
    topo = build_topology(Room(g, DomeRoom()), num_materials=4)
    N, guard = g.num_points, g.nx * g.ny
    rng = np.random.default_rng(seed)
    ins = topo.room.inside_mask().reshape(-1)

    def state():
        a = np.zeros(N + guard)
        a[:N][ins] = rng.standard_normal(int(ins.sum()))
        return a

    prev, curr = state(), state()
    table = (MaterialTable.from_fd(default_fd_materials(4), 3)
             if scheme == "fd_mm"
             else MaterialTable.from_fi(default_fi_materials(4)))
    g1 = v = None
    if scheme == "fd_mm" and branch_seed is not None:
        brng = np.random.default_rng(branch_seed)
        g1, v = (brng.standard_normal(3 * topo.num_boundary_points)
                 for _ in range(2))
    inputs, sizes = host_inputs(scheme, g, topo, table, prev, curr, g1, v)
    return dict(host=compiled_host(scheme, "double", table.num_branches),
                inputs=inputs, sizes=sizes, N=N, guard=guard, grid=g,
                topo=topo, table=table)
