"""Tests for room geometry, voxelisation and boundary topology."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.acoustics import geometry
from repro.acoustics.geometry import (BoxRoom, CylinderRoom, DomeRoom,
                                      LShapedRoom, Room, SphereRoom,
                                      shape_by_name, voxelize)
from repro.acoustics.grid import Grid3D
from repro.acoustics.topology import (RoomTopology, assign_materials,
                                      box_nbrs_closed_form, build_topology,
                                      compute_nbrs)

SHAPES = [BoxRoom(), DomeRoom(), SphereRoom(), CylinderRoom(), LShapedRoom()]


def small_grid():
    return Grid3D(14, 12, 10)


class TestVoxelize:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
    def test_halo_always_outside(self, shape):
        g = small_grid()
        inside = voxelize(shape, g)
        assert not inside[0].any() and not inside[-1].any()
        assert not inside[:, 0].any() and not inside[:, -1].any()
        assert not inside[:, :, 0].any() and not inside[:, :, -1].any()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.name)
    def test_nonempty(self, shape):
        assert voxelize(shape, small_grid()).any()

    def test_box_fills_interior(self):
        g = small_grid()
        inside = voxelize(BoxRoom(), g)
        assert inside.sum() == g.num_interior

    def test_dome_smaller_than_box(self):
        g = small_grid()
        assert voxelize(DomeRoom(), g).sum() < voxelize(BoxRoom(), g).sum()

    def test_sphere_smaller_than_cylinder(self):
        g = small_grid()
        assert voxelize(SphereRoom(), g).sum() < voxelize(CylinderRoom(), g).sum()

    def test_lshape_is_box_minus_notch(self):
        g = small_grid()
        box = voxelize(BoxRoom(), g).sum()
        l = voxelize(LShapedRoom(), g).sum()
        assert 0.5 * box < l < box

    def test_dome_xy_symmetry(self):
        g = Grid3D(13, 13, 9)
        inside = voxelize(DomeRoom(), g)
        np.testing.assert_array_equal(inside, inside[:, ::-1, :])
        np.testing.assert_array_equal(inside, inside[:, :, ::-1])

    def test_shape_by_name(self):
        assert shape_by_name("dome").name == "dome"
        with pytest.raises(ValueError):
            shape_by_name("pyramid")

    def test_room_name(self):
        r = Room(small_grid(), DomeRoom())
        assert "dome" in r.name and "14" in r.name

    @pytest.mark.parametrize("dims", [(9, 8, 7), (16, 12, 10), (23, 17, 13)])
    @pytest.mark.parametrize("name", sorted(geometry.SHAPES))
    def test_room_contains_matches_voxelize(self, name, dims):
        """The one-point test agrees with the voxeliser at every voxel,
        the halo included, and is False off the grid."""
        room = Room(Grid3D(*dims), geometry.SHAPES[name])
        inside = voxelize(room.shape, room.grid)
        nz, ny, nx = inside.shape
        point = np.array([[[room.contains(x, y, z) for x in range(nx)]
                           for y in range(ny)] for z in range(nz)])
        np.testing.assert_array_equal(point, inside)
        for off in [(-1, 1, 1), (nx, 1, 1), (1, -1, 1), (1, ny, 1),
                    (1, 1, -1), (1, 1, nz), (nx + 3, ny // 2, nz // 2)]:
            assert not room.contains(*off)


#: sha256 prefixes of ``build_topology(room, 4)``'s ``nbrs``,
#: ``boundary_indices`` and ``material`` bytes, taken from the voxeliser
#: that always broadcast-materialised the inside test into a new mask
_TOPOLOGY_DIGESTS = {
    ((14, 12, 10), "box"): "664a7cb510c1232b",
    ((14, 12, 10), "dome"): "dbdac7b10165b9c8",
    ((14, 12, 10), "sphere"): "ee1c0ecb5eb872a9",
    ((14, 12, 10), "cylinder"): "a4686c43c977349a",
    ((14, 12, 10), "lshape"): "649f5fd292494a2c",
    ((17, 13, 11), "box"): "18b31ef63bb32c9f",
    ((17, 13, 11), "dome"): "bacb763c9157be95",
    ((17, 13, 11), "sphere"): "fb2cfc8272ff26a5",
    ((17, 13, 11), "cylinder"): "193337b9d1e7a3bf",
    ((17, 13, 11), "lshape"): "c5fbabf4cbe0d4cd",
}


class TestOnePassVoxelize:
    """``voxelize`` keeps the inside test's own full-volume result as the
    mask; it must be the mask the broadcast-materialising path builds."""

    @staticmethod
    def materialised(shape, g):
        z, y, x = np.ogrid[0:g.nz, 0:g.ny, 0:g.nx]
        mask = np.empty(g.shape, dtype=bool)
        mask[...] = shape.contains(x, y, z, g)
        mask[0] = mask[-1] = False
        mask[:, 0] = mask[:, -1] = False
        mask[:, :, 0] = mask[:, :, -1] = False
        return mask

    @pytest.mark.parametrize("dims", [(14, 12, 10), (17, 13, 11)],
                             ids=["even", "odd"])
    @pytest.mark.parametrize("name", sorted(geometry.SHAPES))
    def test_matches_materialised_mask(self, name, dims):
        shape, g = geometry.SHAPES[name], Grid3D(*dims)
        inside = voxelize(shape, g)
        assert inside.dtype == bool and inside.shape == g.shape
        np.testing.assert_array_equal(inside, self.materialised(shape, g))
        assert not (inside[[0, -1]].any() or inside[:, [0, -1]].any()
                    or inside[:, :, [0, -1]].any())
        assert inside.flags.owndata and inside.flags.writeable

    @pytest.mark.parametrize("dims", [(14, 12, 10), (17, 13, 11)],
                             ids=["even", "odd"])
    @pytest.mark.parametrize("name", sorted(geometry.SHAPES))
    def test_topology_unchanged(self, name, dims):
        shape, g = geometry.SHAPES[name], Grid3D(*dims)
        topo = build_topology(Room(g, shape), 4)
        ref = self.materialised(shape, g)
        nbrs = compute_nbrs(ref).reshape(-1)
        bidx = np.flatnonzero((nbrs >= 1) & (nbrs <= 5)).astype(np.int32)
        np.testing.assert_array_equal(topo.nbrs, nbrs)
        np.testing.assert_array_equal(topo.boundary_indices, bidx)
        np.testing.assert_array_equal(
            topo.material, assign_materials(g, ref, bidx, 4))
        h = hashlib.sha256()
        for a in (topo.nbrs, topo.boundary_indices, topo.material):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == _TOPOLOGY_DIGESTS[dims, name]

    def test_broadcast_result_is_copied(self):
        """A test that returns a broadcast (non-owning) array still gets a
        mask of its own."""
        class Slab:
            name = "slab"

            def contains(self, x, y, z, grid):
                return np.broadcast_to(z >= 2, grid.shape)

        g = small_grid()
        inside = voxelize(Slab(), g)
        assert inside.flags.owndata and inside.flags.writeable
        np.testing.assert_array_equal(inside, self.materialised(Slab(), g))


class TestComputeNbrs:
    def test_matches_paper_closed_form_for_box(self):
        """compute_nbrs on a box must equal Listing 1's Boolean formulas."""
        g = small_grid()
        inside = voxelize(BoxRoom(), g)
        nbrs = compute_nbrs(inside).reshape(-1)
        np.testing.assert_array_equal(nbrs, box_nbrs_closed_form(g))

    def test_outside_points_zero(self):
        g = small_grid()
        inside = voxelize(DomeRoom(), g)
        nbrs = compute_nbrs(inside)
        assert (nbrs[~inside] == 0).all()

    def test_interior_points_six(self):
        g = small_grid()
        inside = voxelize(BoxRoom(), g)
        nbrs = compute_nbrs(inside)
        assert nbrs[2, 2, 2] == 6

    def test_corner_point_three(self):
        g = small_grid()
        inside = voxelize(BoxRoom(), g)
        nbrs = compute_nbrs(inside)
        assert nbrs[1, 1, 1] == 3  # box corner has 3 inside neighbours

    def test_face_point_five(self):
        g = small_grid()
        inside = voxelize(BoxRoom(), g)
        nbrs = compute_nbrs(inside)
        assert nbrs[1, 5, 5] == 5

    def test_range(self):
        g = small_grid()
        for shape in SHAPES:
            nbrs = compute_nbrs(voxelize(shape, g))
            assert nbrs.min() >= 0 and nbrs.max() <= 6


class TestTopology:
    def test_boundary_points_have_partial_neighbours(self):
        topo = build_topology(Room(small_grid(), DomeRoom()))
        n_at_boundary = topo.nbrs[topo.boundary_indices]
        assert (n_at_boundary >= 1).all() and (n_at_boundary <= 5).all()

    def test_boundary_indices_sorted_unique(self):
        topo = build_topology(Room(small_grid(), DomeRoom()))
        b = topo.boundary_indices
        assert (np.diff(b) > 0).all()

    def test_boundary_points_inside(self):
        topo = build_topology(Room(small_grid(), DomeRoom()))
        flat_inside = topo.room.inside_mask().reshape(-1)
        assert flat_inside[topo.boundary_indices].all()

    def test_box_boundary_count_closed_form(self):
        """Box boundary = interior surface shell (analytic count)."""
        g = small_grid()
        topo = build_topology(Room(g, BoxRoom()))
        ix, iy, iz = g.nx - 2, g.ny - 2, g.nz - 2
        expected = ix * iy * iz - (ix - 2) * (iy - 2) * (iz - 2)
        assert topo.num_boundary_points == expected

    def test_contiguity_between_zero_and_one(self):
        for shape in SHAPES:
            topo = build_topology(Room(small_grid(), shape))
            assert 0.0 <= topo.contiguity() <= 1.0

    def test_box_more_contiguous_than_dome(self):
        """The paper's box > dome performance comes from this property."""
        g = Grid3D(30, 22, 16)
        box = build_topology(Room(g, BoxRoom()))
        dome = build_topology(Room(g, DomeRoom()))
        assert box.contiguity() > dome.contiguity()

    def test_uniform_box_less_contiguous(self):
        """The 336³ dip: uniform dims give shorter unit-stride runs."""
        uniform = build_topology(Room(Grid3D(20, 20, 20), BoxRoom()))
        elongated = build_topology(Room(Grid3D(36, 20, 12), BoxRoom()))
        assert elongated.contiguity() > uniform.contiguity()

    def test_mean_run_length_consistent_with_contiguity(self):
        topo = build_topology(Room(small_grid(), BoxRoom()))
        c = topo.contiguity()
        assert topo.mean_run_length() == pytest.approx(1.0 / (1.0 - c), rel=0.01)


class TestMaterials:
    def test_single_material(self):
        topo = build_topology(Room(small_grid(), DomeRoom()), num_materials=1)
        assert (topo.material == 0).all()

    def test_ids_in_range(self):
        for m in (2, 3, 5):
            topo = build_topology(Room(small_grid(), DomeRoom()),
                                  num_materials=m)
            assert topo.material.min() >= 0
            assert topo.material.max() < m

    def test_multiple_materials_used(self):
        topo = build_topology(Room(small_grid(), BoxRoom()), num_materials=4)
        assert len(np.unique(topo.material)) >= 3

    def test_floor_is_material_zero(self):
        g = small_grid()
        topo = build_topology(Room(g, BoxRoom()), num_materials=4)
        x, y, z = g.coords_of(topo.boundary_indices)
        floor = z == 1
        assert (topo.material[floor] == 0).all()

    def test_deterministic(self):
        t1 = build_topology(Room(small_grid(), DomeRoom()), num_materials=4)
        t2 = build_topology(Room(small_grid(), DomeRoom()), num_materials=4)
        np.testing.assert_array_equal(t1.material, t2.material)

    def test_rejects_zero_materials(self):
        g = small_grid()
        with pytest.raises(ValueError):
            assign_materials(g, voxelize(BoxRoom(), g),
                             np.array([0], dtype=np.int32), 0)
