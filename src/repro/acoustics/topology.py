"""Boundary topology: the paper's ``nbrs`` and ``boundaryIndices`` arrays.

From an inside-mask this module derives the explicit data structures that
complex boundary shapes require (paper §II-B/§II-C):

* ``nbrs[idx]`` — for each grid point, the number of its six face
  neighbours lying inside the room; 0 for points outside (so the volume
  kernel's ``if (nbr > 0)`` skips them);
* ``boundary_indices`` — flat indices of inside points with 1 ≤ nbr ≤ 5,
  sorted ascending (the natural order a scan produces, which also maximises
  memory coalescing);
* ``material`` — per-boundary-point material id, assigned by face
  orientation / height (floor, ceiling, walls can differ);
* contiguity statistics — the fraction of consecutive boundary indices
  that are adjacent in memory.  This drives the virtual GPU's coalescing
  model and reproduces the paper's observation that the uniform 336³ room
  (and the dome generally) has fewer contiguous boundary runs (§VII-B1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Room
from .grid import Grid3D


def compute_nbrs(inside: np.ndarray) -> np.ndarray:
    """Count inside face-neighbours per point (int8, 0 outside).

    ``inside`` is the (z, y, x) boolean mask.  Matches the on-the-fly
    computation of paper Listing 1 for a box, and the pre-computed lookup
    of §II-B for general shapes.  The counts are 0-6, so one byte per
    point holds them: the six shifted slices of the mask are added in
    place, with no widened copy of the volume.
    """
    # bool is one byte holding 0 or 1
    ins = np.asarray(inside, dtype=bool).view(np.int8)
    nbr = np.zeros(ins.shape, dtype=np.int8)
    nbr[:, :, 1:] += ins[:, :, :-1]
    nbr[:, :, :-1] += ins[:, :, 1:]
    nbr[:, 1:, :] += ins[:, :-1, :]
    nbr[:, :-1, :] += ins[:, 1:, :]
    nbr[1:, :, :] += ins[:-1, :, :]
    nbr[:-1, :, :] += ins[1:, :, :]
    nbr *= ins  # outside points are never updated
    return nbr


@dataclass(frozen=True)
class RoomTopology:
    """All precomputed boundary data for one room."""

    grid: Grid3D
    inside: np.ndarray            # (z,y,x) bool
    nbrs: np.ndarray              # flat int8 (values 0-6), 0 outside
    boundary_indices: np.ndarray  # flat indices, ascending, int32
    material: np.ndarray          # per-boundary-point material id, int32
    num_materials: int

    @property
    def num_boundary_points(self) -> int:
        return int(self.boundary_indices.size)

    @property
    def num_inside_points(self) -> int:
        return int(self.inside.sum())

    # -- contiguity (drives the coalescing model) --------------------------------
    def contiguity(self) -> float:
        """Fraction of consecutive boundary indices that are memory-adjacent.

        1.0 means boundary points form long unit-stride runs (perfectly
        coalesced gathers/scatters); 0.0 means fully scattered.
        """
        b = self.boundary_indices
        if b.size < 2:
            return 1.0
        return float(np.mean(np.diff(b.astype(np.int64)) == 1))

    def mean_run_length(self) -> float:
        """Mean length of unit-stride runs of boundary indices."""
        b = self.boundary_indices.astype(np.int64)
        if b.size == 0:
            return 0.0
        breaks = np.diff(b) != 1
        return float(b.size / (1 + int(breaks.sum())))


def assign_materials(grid: Grid3D, inside: np.ndarray,
                     boundary_indices: np.ndarray,
                     num_materials: int) -> np.ndarray:
    """Assign a material id to each boundary point by location.

    Convention (documented, arbitrary but deterministic): material 0 for
    the floor region (lowest quarter), 1 for the ceiling region (highest
    quarter), remaining ids striped over the walls by azimuthal sector.
    With ``num_materials == 1`` everything is material 0.
    """
    if num_materials < 1:
        raise ValueError("need at least one material")
    x, y, z = grid.coords_of(boundary_indices)
    mat = np.zeros(boundary_indices.size, dtype=np.int32)
    if num_materials == 1:
        return mat
    zf = (z - 1) / max(1, grid.nz - 3)  # 0 at floor, 1 at ceiling
    mat[zf >= 0.75] = 1 % num_materials
    side = (zf > 0.25) & (zf < 0.75)
    if num_materials > 2:
        x0 = (grid.nx - 1) / 2.0
        y0 = (grid.ny - 1) / 2.0
        ang = np.arctan2(y[side] - y0, x[side] - x0)
        sector = ((ang + np.pi) / (2 * np.pi) * (num_materials - 2)).astype(np.int32)
        sector = np.clip(sector, 0, num_materials - 3)
        mat[side] = 2 + sector
    return mat


def build_topology(room: Room, num_materials: int = 1) -> RoomTopology:
    """Voxelise a room and derive all boundary data structures."""
    inside = room.inside_mask()
    nbrs = compute_nbrs(inside).reshape(-1)
    # outside points count 0, so the range test alone selects the
    # inside points that miss at least one neighbour
    is_boundary = (nbrs >= 1) & (nbrs <= 5)
    boundary_indices = np.flatnonzero(is_boundary).astype(np.int32)
    material = assign_materials(room.grid, inside, boundary_indices,
                                num_materials)
    return RoomTopology(grid=room.grid, inside=inside, nbrs=nbrs,
                        boundary_indices=boundary_indices, material=material,
                        num_materials=num_materials)


def box_nbrs_closed_form(grid: Grid3D) -> np.ndarray:
    """The box ``nbrs`` computed exactly as paper Listing 1 lines 3–6.

    Used in tests to pin :func:`compute_nbrs` against the paper's
    on-the-fly Boolean formulas.  Each formula reads one coordinate, so
    the per-axis terms are summed over open grids and only the sum (one
    int32 volume) is ever full size.
    """
    z, y, x = np.ogrid[0:grid.nz, 0:grid.ny, 0:grid.nx]

    def axis(c, n):
        # (count of the two faces along this axis, in-grid-interior flag)
        return ((c != 1).astype(np.int32) + (c != n - 2),
                (c != 0) & (c != n - 1))

    (cz, iz), (cy, iy), (cx, ix) = (axis(z, grid.nz), axis(y, grid.ny),
                                    axis(x, grid.nx))
    nbr = (cz + cy) + cx
    nbr *= iz & iy
    nbr *= ix
    return nbr.reshape(-1)
