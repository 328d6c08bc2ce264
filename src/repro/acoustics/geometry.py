"""Room geometries and voxelisation.

The paper evaluates two shapes: a **box** (the full cuboid interior, for
which the inside/outside test is the pair of Boolean formulas in Listing 1)
and a **dome** (a non-cuboid shape that *requires* the pre-computed ``nbrs``
data structure, §II-B / Fig. 1).  We implement those two plus a few more
shapes useful for tests and examples (sphere, cylinder, L-shaped room).

A :class:`Room` couples a shape with a grid; :func:`voxelize` produces the
boolean inside-mask (halo always outside), from which
:mod:`repro.acoustics.topology` derives ``nbrs`` and the boundary index
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .grid import Grid3D


class Shape(Protocol):
    """A room shape: a vectorised inside test over grid coordinates."""

    name: str

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 grid: Grid3D) -> np.ndarray:
        """Boolean mask: True where (x, y, z) lies inside the room."""
        ...


@dataclass(frozen=True)
class BoxRoom:
    """The full cuboid interior — the paper's 'box' shape."""

    name: str = "box"

    def contains(self, x, y, z, grid: Grid3D) -> np.ndarray:
        # Everything except the halo is inside.  Over open grids the z and
        # y terms meet in one (nz, ny, 1) plane first, so only the last
        # ``&`` touches the volume.
        return (((z >= 1) & (z <= grid.nz - 2)
                 & (y >= 1) & (y <= grid.ny - 2))
                & ((x >= 1) & (x <= grid.nx - 2)))


@dataclass(frozen=True)
class DomeRoom:
    """A half-ellipsoid dome standing on the floor — the paper's 'dome'.

    Semi-axes span the interior: a = (nx-2)/2, b = (ny-2)/2 horizontally and
    the full interior height vertically, truncated at the floor plane.
    """

    name: str = "dome"

    def contains(self, x, y, z, grid: Grid3D) -> np.ndarray:
        a = (grid.nx - 2) / 2.0
        b = (grid.ny - 2) / 2.0
        c = float(grid.nz - 2)
        x0 = (grid.nx - 1) / 2.0
        y0 = (grid.ny - 1) / 2.0
        z0 = 1.0  # floor plane
        r2 = (((x - x0) / a) ** 2 + ((y - y0) / b) ** 2
              + ((z - z0) / c) ** 2)
        return (r2 <= 1.0) & BoxRoom().contains(x, y, z, grid)


@dataclass(frozen=True)
class SphereRoom:
    """An ellipsoid inscribed in the interior box."""

    name: str = "sphere"

    def contains(self, x, y, z, grid: Grid3D) -> np.ndarray:
        a = (grid.nx - 2) / 2.0
        b = (grid.ny - 2) / 2.0
        c = (grid.nz - 2) / 2.0
        x0 = (grid.nx - 1) / 2.0
        y0 = (grid.ny - 1) / 2.0
        z0 = (grid.nz - 1) / 2.0
        r2 = (((x - x0) / a) ** 2 + ((y - y0) / b) ** 2
              + ((z - z0) / c) ** 2)
        return r2 <= 1.0


@dataclass(frozen=True)
class CylinderRoom:
    """A vertical elliptical cylinder spanning the interior height."""

    name: str = "cylinder"

    def contains(self, x, y, z, grid: Grid3D) -> np.ndarray:
        a = (grid.nx - 2) / 2.0
        b = (grid.ny - 2) / 2.0
        x0 = (grid.nx - 1) / 2.0
        y0 = (grid.ny - 1) / 2.0
        r2 = ((x - x0) / a) ** 2 + ((y - y0) / b) ** 2
        return (r2 <= 1.0) & ((z >= 1) & (z <= grid.nz - 2))


@dataclass(frozen=True)
class LShapedRoom:
    """An L-shaped floor plan: the box minus one quadrant (x, y high)."""

    name: str = "lshape"
    cut_fraction: float = 0.5

    def contains(self, x, y, z, grid: Grid3D) -> np.ndarray:
        box = BoxRoom().contains(x, y, z, grid)
        cut_x = 1 + (grid.nx - 2) * (1 - self.cut_fraction)
        cut_y = 1 + (grid.ny - 2) * (1 - self.cut_fraction)
        notch = (x >= cut_x) & (y >= cut_y)
        return box & ~notch


SHAPES: dict[str, Shape] = {
    "box": BoxRoom(),
    "dome": DomeRoom(),
    "sphere": SphereRoom(),
    "cylinder": CylinderRoom(),
    "lshape": LShapedRoom(),
}


def shape_by_name(name: str) -> Shape:
    try:
        return SHAPES[name]
    except KeyError:
        raise ValueError(f"unknown shape {name!r}; "
                         f"available: {sorted(SHAPES)}") from None


def voxelize(shape: Shape, grid: Grid3D) -> np.ndarray:
    """Boolean inside-mask of shape ``grid.shape`` (z, y, x); halo is False.

    Uses open (broadcast) coordinate grids so the inside test never
    materialises full int coordinate volumes — voxelising the paper's
    602×402×302 rooms takes seconds, not minutes.  When the test already
    returns a full-volume bool array of its own, that array is the mask;
    only a broadcast (or borrowed) result is copied into a new one.
    """
    z, y, x = np.ogrid[0:grid.nz, 0:grid.ny, 0:grid.nx]
    inside = shape.contains(x, y, z, grid)
    if not (isinstance(inside, np.ndarray) and inside.dtype == bool
            and inside.shape == grid.shape and inside.flags.owndata
            and inside.flags.writeable):
        inside = np.broadcast_to(inside, grid.shape).astype(bool)
    # enforce the zero halo
    inside[0, :, :] = inside[-1, :, :] = False
    inside[:, 0, :] = inside[:, -1, :] = False
    inside[:, :, 0] = inside[:, :, -1] = False
    return inside


@dataclass(frozen=True)
class Room:
    """A voxelised room: shape + grid (the simulation's geometric substrate)."""

    grid: Grid3D
    shape: Shape

    @property
    def name(self) -> str:
        return f"{self.shape.name}-{self.grid.nx}x{self.grid.ny}x{self.grid.nz}"

    def inside_mask(self) -> np.ndarray:
        return voxelize(self.shape, self.grid)

    def contains(self, x: int, y: int, z: int) -> bool:
        """:func:`voxelize`'s verdict at one voxel, without the volume
        (False in the halo and off the grid)."""
        g = self.grid
        if not (0 < x < g.nx - 1 and 0 < y < g.ny - 1 and 0 < z < g.nz - 1):
            return False
        zz, yy, xx = np.ogrid[z:z + 1, y:y + 1, x:x + 1]
        return bool(np.all(self.shape.contains(xx, yy, zz, g)))
