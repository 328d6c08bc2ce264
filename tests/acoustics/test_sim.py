"""Tests for the simulation driver: backend parity and physics invariants."""

import numpy as np
import pytest

from repro.acoustics import (BoxRoom, DomeRoom, Grid3D, Room,
                             RoomSimulation, SimConfig)
from repro.acoustics.analysis import (dc_mode_amplitude, energy_decay_db,
                                      total_field_energy)
from repro.acoustics.materials import (FDMaterial, FIMaterial,
                                       default_fd_materials,
                                       default_fi_materials)


def small_room(shape=DomeRoom):
    return Room(Grid3D(16, 14, 12), shape())


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(room=small_room(), scheme="magic")

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            SimConfig(room=small_room(), backend="cuda")

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            SimConfig(room=small_room(), precision="half")

    def test_fd_requires_fd_materials(self):
        with pytest.raises(ValueError):
            RoomSimulation(SimConfig(room=small_room(), scheme="fd_mm",
                                     materials=default_fi_materials(2)))

    def test_dtype(self):
        assert SimConfig(room=small_room(), precision="single").dtype \
            == np.float32


class TestBackendParity:
    """All four backends produce the same trajectory (double precision)."""

    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_parity(self, scheme):
        room = small_room()
        mats = (default_fd_materials(3) if scheme == "fd_mm"
                else default_fi_materials(3))
        states = {}
        for backend in ("numpy", "scalar", "lift", "lift_interp"):
            sim = RoomSimulation(SimConfig(room=room, scheme=scheme,
                                           backend=backend, materials=mats))
            sim.add_impulse("center")
            sim.run(4)
            states[backend] = sim.curr[:sim._N].copy()
        base = states["numpy"]
        for backend in ("scalar", "lift", "lift_interp"):
            np.testing.assert_allclose(states[backend], base, atol=1e-13,
                                       err_msg=f"{scheme}/{backend}")

    def test_fd_state_parity(self):
        room = small_room()
        mats = default_fd_materials(3)
        sims = {}
        for backend in ("numpy", "lift"):
            sim = RoomSimulation(SimConfig(room=room, scheme="fd_mm",
                                           backend=backend, materials=mats))
            sim.add_impulse("center")
            sim.run(6)
            sims[backend] = sim
        np.testing.assert_allclose(sims["lift"].g1, sims["numpy"].g1,
                                   atol=1e-13)
        np.testing.assert_allclose(sims["lift"].v, sims["numpy"].v,
                                   atol=1e-13)


class TestPhysics:
    def test_rigid_room_conserves_energy(self):
        """β = 0 everywhere: the field energy stays bounded (lossless).

        The impulse is injected with zero initial velocity (curr == prev at
        the source) so the scheme's secular DC mode is not excited; the
        energy proxy then oscillates in a bounded band instead of decaying.
        """
        sim = RoomSimulation(SimConfig(
            room=small_room(BoxRoom), scheme="fi",
            materials=[FIMaterial("rigid", 0.0)]))
        idx = sim.add_impulse("center")
        sim.prev[idx] += 1.0
        sim.run(2)
        e0 = total_field_energy(sim)
        lo = hi = e0
        for _ in range(300):
            sim.step()
            e = total_field_energy(sim)
            lo, hi = min(lo, e), max(hi, e)
        assert lo > 0.5 * e0
        assert hi < 2.0 * e0

    def test_rigid_impulse_grows_secularly_without_velocity_balance(self):
        """A bare impulse excites the scheme's linear-in-time DC solution —
        the well-known SLF zero mode under rigid boundaries.  Documents why
        sources are injected velocity-balanced."""
        sim = RoomSimulation(SimConfig(
            room=small_room(BoxRoom), scheme="fi",
            materials=[FIMaterial("rigid", 0.0)]))
        sim.add_impulse("center")
        sim.run(2)
        e0 = total_field_energy(sim)
        sim.run(200)
        assert total_field_energy(sim) > 3.0 * e0

    def test_absorbing_room_loses_energy(self):
        sim = RoomSimulation(SimConfig(
            room=small_room(BoxRoom), scheme="fi",
            materials=[FIMaterial("soft", 0.8)]))
        sim.add_impulse("center")
        sim.run(2)
        e0 = total_field_energy(sim)
        sim.run(100)
        assert total_field_energy(sim) < 0.5 * e0

    def test_more_absorption_decays_faster(self):
        energies = []
        for beta in (0.05, 0.3, 0.9):
            sim = RoomSimulation(SimConfig(
                room=small_room(BoxRoom), scheme="fi",
                materials=[FIMaterial("m", beta)]))
            sim.add_impulse("center")
            sim.run(120)
            energies.append(total_field_energy(sim))
        assert energies[0] > energies[1] > energies[2]

    def test_fd_mm_is_dissipative(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fd_mm",
                                       materials=default_fd_materials(4)))
        sim.add_impulse("center")
        sim.run(2)
        e0 = total_field_energy(sim)
        sim.run(150)
        assert total_field_energy(sim) < e0

    def test_stability_at_courant_limit(self):
        """No blow-up over many steps at λ = 1/√3."""
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm",
                                       materials=default_fi_materials(3)))
        sim.add_impulse("center")
        sim.run(250)
        assert np.isfinite(sim.curr).all()
        assert np.abs(sim.curr).max() < 10.0

    def test_wave_propagates_outward(self):
        room = small_room(BoxRoom)
        sim = RoomSimulation(SimConfig(room=room, scheme="fi",
                                       materials=default_fi_materials(1)))
        g = room.grid
        src = sim.add_impulse("center")
        probe = g.flat_index(g.nx // 2 + 3, g.ny // 2, g.nz // 2)
        assert sim.curr[probe] == 0.0
        sim.run(6)  # wave needs ~3/λ steps to travel 3 cells
        assert sim.curr[probe] != 0.0

    def test_outside_stays_zero(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm",
                                       materials=default_fi_materials(2)))
        sim.add_impulse("center")
        sim.run(30)
        outside = ~sim.topology.room.inside_mask().reshape(-1)
        assert (sim.curr[:sim._N][outside] == 0).all()

    def test_guard_region_stays_zero(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm",
                                       backend="lift",
                                       materials=default_fi_materials(2)))
        sim.add_impulse("center")
        sim.run(20)
        assert (sim.curr[sim._N:] == 0).all()
        assert (sim.prev[sim._N:] == 0).all()

    def test_single_precision_tracks_double(self):
        room = small_room()
        signals = {}
        for precision in ("single", "double"):
            sim = RoomSimulation(SimConfig(room=room, scheme="fi_mm",
                                           precision=precision,
                                           materials=default_fi_materials(3)))
            sim.add_impulse("center")
            sim.add_receiver("r", "center")
            sim.run(40)
            signals[precision] = sim.receiver_signal("r")
        np.testing.assert_allclose(signals["single"], signals["double"],
                                   atol=1e-4)


class TestSourcesReceivers:
    def test_impulse_outside_rejected(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm"))
        with pytest.raises(ValueError):
            sim.add_impulse((0, 0, 0))

    @pytest.mark.parametrize("position", [
        (15, 4, 4), (-3, 4, 4), (4, 10, 4), (4, -1, 4), (4, 4, 8),
        (4, 4, -2), (0, 4, 4), (11, 4, 4), (4, 9, 4), (4, 4, 7),
        (10, 4.5, 4), (4.5, 4, 4)])
    def test_off_grid_and_halo_positions_rejected(self, position):
        # on a 12x10x8 grid (15, 4, 4) used to wrap to the flat index
        # of (3, 5, 4), and (-3, 4, 4) to the row below, both inside;
        # (10, 4.5, 4) was truncated to the flat index of (4, 5, 4)
        g = Grid3D(12, 10, 8)
        sim = RoomSimulation(SimConfig(room=Room(g, BoxRoom()), scheme="fi"))
        why = "outside the room|not a grid point"
        with pytest.raises(ValueError, match=why):
            sim.add_impulse(position)
        with pytest.raises(ValueError, match=why):
            sim.add_receiver("r", position)
        assert not sim.curr.any() and not sim.receivers
        assert sim.point_index((10, 8, 6)) == g.flat_index(10, 8, 6)
        assert sim.point_index((10.0, 8, 6)) == g.flat_index(10, 8, 6)

    def test_receiver_records_each_step(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm"))
        sim.add_impulse("center")
        sim.add_receiver("r", "center")
        sim.run(17)
        assert sim.receiver_signal("r").shape == (17,)

    def test_time_step_counter(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi"))
        sim.run(9)
        assert sim.time_step == 9

    def test_state_snapshot_shape(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi"))
        snap = sim.state_snapshot()
        assert snap.shape == sim.grid.shape

    def test_dc_mode_helper(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi"))
        sim.add_impulse("center")
        assert dc_mode_amplitude(sim) > 0


class TestVirtualGPUBackend:
    """The full Listing-5 host orchestration as a simulation backend."""

    @pytest.mark.parametrize("scheme", ["fi_mm", "fd_mm"])
    def test_matches_numpy_trajectory(self, scheme):
        room = small_room()
        mats = (default_fd_materials(3) if scheme == "fd_mm"
                else default_fi_materials(3))
        ref = RoomSimulation(SimConfig(room=room, scheme=scheme,
                                       backend="numpy", materials=mats))
        gpu = RoomSimulation(SimConfig(room=room, scheme=scheme,
                                       backend="virtual_gpu",
                                       materials=mats))
        for sim in (ref, gpu):
            sim.add_impulse("center")
            sim.run(5)
        np.testing.assert_allclose(gpu.curr[:gpu._N], ref.curr[:ref._N],
                                   atol=1e-15)
        if scheme == "fd_mm":
            np.testing.assert_allclose(gpu.g1, ref.g1, atol=1e-15)

    def test_accumulates_modelled_time(self):
        sim = RoomSimulation(SimConfig(room=small_room(), scheme="fi_mm",
                                       backend="virtual_gpu",
                                       materials=default_fi_materials(2)))
        sim.add_impulse("center")
        sim.run(3)
        t3 = sim.modelled_gpu_time_ms
        assert t3 > 0
        sim.run(3)
        assert sim.modelled_gpu_time_ms > t3

    def test_device_retarget_changes_time_not_results(self):
        from repro.gpu.device import AMD_HD7970
        room = small_room()
        mats = default_fi_materials(2)
        a = RoomSimulation(SimConfig(room=room, scheme="fi_mm",
                                     backend="virtual_gpu", materials=mats))
        b = RoomSimulation(SimConfig(room=room, scheme="fi_mm",
                                     backend="virtual_gpu", materials=mats))
        b.set_devices(AMD_HD7970)
        for sim in (a, b):
            sim.add_impulse("center")
            sim.run(3)
        np.testing.assert_array_equal(a.curr, b.curr)
        assert a.modelled_gpu_time_ms != b.modelled_gpu_time_ms

    def test_fi_scheme_runs_fused_kernel(self):
        # fi used to be rejected on this backend; it now runs the fused
        # single-kernel host program, matching the numpy baseline
        mats = default_fi_materials(1)
        gpu = RoomSimulation(SimConfig(room=small_room(), scheme="fi",
                                       backend="virtual_gpu",
                                       materials=mats))
        ref = RoomSimulation(SimConfig(room=small_room(), scheme="fi",
                                       backend="numpy", materials=mats))
        for sim in (gpu, ref):
            sim.add_impulse("center")
            sim.run(4)
        np.testing.assert_allclose(gpu.curr[:gpu._N], ref.curr[:ref._N],
                                   atol=1e-12)
        assert gpu.modelled_gpu_time_ms > 0
