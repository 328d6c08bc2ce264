"""Benchmark room registry (paper Table II) with cached topologies.

``room_bundle(size, shape, scale)`` voxelises a paper room (optionally
scaled down for fast test runs) and caches the result in-process — the
602×402×302 rooms take ~10–30 s to voxelise, so the harness builds each at
most once.  A cached topology keeps ``nbrs`` and the boundary arrays, not
the inside mask: a caller that needs the mask (``topo.room.inside_mask()``)
voxelises the room again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..acoustics.geometry import Room, shape_by_name
from ..acoustics.grid import Grid3D
from ..acoustics.topology import RoomTopology, build_topology

#: the paper's Table II sizes, keyed by their x-dimension label
PAPER_SIZES: dict[str, tuple[int, int, int]] = {
    "602": (602, 402, 302),
    "336": (336, 336, 336),
    "302": (302, 202, 152),
}

PAPER_SHAPES = ("box", "dome")


@dataclass(frozen=True)
class RoomBundle:
    """Everything the cost model needs about one benchmark room."""

    size_label: str
    shape: str
    scale: int
    grid: Grid3D
    num_points: int
    num_boundary_points: int
    boundary_indices: np.ndarray
    contiguity: float
    mean_run_length: float

    @property
    def name(self) -> str:
        suffix = "" if self.scale == 1 else f"/{self.scale}"
        return f"{self.shape}-{self.size_label}{suffix}"


def scaled_dims(size_label: str, scale: int) -> tuple[int, int, int]:
    """Paper dims divided by ``scale`` (kept >= 8 per axis)."""
    dims = PAPER_SIZES[size_label]
    return tuple(max(8, d // scale) for d in dims)  # type: ignore[return-value]


@lru_cache(maxsize=None)
def room_topology(size_label: str, shape: str, scale: int = 1,
                  num_materials: int = 4) -> RoomTopology:
    nx, ny, nz = scaled_dims(size_label, scale)
    room = Room(Grid3D(nx, ny, nz), shape_by_name(shape))
    return build_topology(room, num_materials=num_materials)


@lru_cache(maxsize=None)
def room_bundle(size_label: str, shape: str, scale: int = 1) -> RoomBundle:
    """Build (or fetch) the benchmark bundle for one paper room."""
    if size_label not in PAPER_SIZES:
        raise ValueError(f"unknown size {size_label!r}; one of "
                         f"{sorted(PAPER_SIZES)}")
    topo = room_topology(size_label, shape, scale)
    g = topo.grid
    return RoomBundle(
        size_label=size_label, shape=shape, scale=scale, grid=g,
        num_points=g.num_points,
        num_boundary_points=topo.num_boundary_points,
        boundary_indices=topo.boundary_indices,
        contiguity=topo.contiguity(),
        mean_run_length=topo.mean_run_length())
