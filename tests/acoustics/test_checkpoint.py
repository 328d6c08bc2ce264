"""Checkpoint/restart and the numerical-health monitor."""

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.materials import (default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.sim import Checkpoint, SimulationDiverged
from repro.lift.codegen.loops import available_tiers

needs_compiled_tier = pytest.mark.skipif(
    available_tiers() == ("python",), reason="no compiled loop tier")


def make_sim(scheme="fi_mm", backend="numpy", **cfg):
    mats = (default_fd_materials(4) if scheme == "fd_mm"
            else default_fi_materials(4))
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 9), DomeRoom()),
                                   scheme=scheme, backend=backend,
                                   materials=mats, **cfg))
    sim.add_impulse("center")
    sim.add_receiver("mic", "center")
    return sim


class TestCheckpointRestart:
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_resume_is_bit_identical(self, scheme):
        steps, cut = 12, 7
        ref = make_sim(scheme)
        ref.run(steps)

        first = make_sim(scheme)
        first.run(cut)
        cp = first.checkpoint()

        resumed = make_sim(scheme)
        resumed.restore(cp)
        assert resumed.time_step == cut
        resumed.run(steps - cut)

        np.testing.assert_array_equal(resumed.curr, ref.curr)
        np.testing.assert_array_equal(resumed.prev, ref.prev)
        np.testing.assert_array_equal(resumed.g1, ref.g1)
        np.testing.assert_array_equal(resumed.v, ref.v)
        np.testing.assert_array_equal(resumed.receiver_signal("mic"),
                                      ref.receiver_signal("mic"))

    @needs_compiled_tier
    @pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
    def test_resume_numba_backend(self, scheme):
        """Two time levels: the checkpoint holds all the state there is."""
        steps, cut = 12, 7
        ref = make_sim(scheme, backend="numba")
        ref.run(steps)
        first = make_sim(scheme, backend="numba")
        first.run(cut)
        resumed = make_sim(scheme, backend="numba")
        resumed.restore(first.checkpoint())
        resumed.run(steps - cut)
        for name in ("curr", "prev", "g1", "v"):
            np.testing.assert_array_equal(getattr(resumed, name),
                                          getattr(ref, name))
        np.testing.assert_array_equal(resumed.receiver_signal("mic"),
                                      ref.receiver_signal("mic"))
        # and it is the three-level run's state, to the last bit
        steady = make_sim(scheme, backend="numpy-steady")
        steady.run(steps)
        np.testing.assert_array_equal(resumed.curr, steady.curr)

    @pytest.mark.parametrize("scheme", ["fi_mm", "fd_mm"])
    def test_resume_virtual_gpu_backend(self, scheme):
        steps, cut = 8, 5
        ref = make_sim(scheme, backend="virtual_gpu")
        ref.run(steps)
        first = make_sim(scheme, backend="virtual_gpu")
        first.run(cut)
        resumed = make_sim(scheme, backend="virtual_gpu")
        resumed.restore(first.checkpoint())
        resumed.run(steps - cut)
        np.testing.assert_array_equal(resumed.curr, ref.curr)
        # modelled time also resumes, so profiling stays comparable
        assert resumed.modelled_gpu_time_ms == pytest.approx(
            ref.modelled_gpu_time_ms)

    def test_restore_rewinds_modelled_halo_time(self, tmp_path):
        """A resumed multi-shard run reports the halo time of an unbroken
        one, from a checkpoint in memory and from its archive."""
        def pool():
            return make_sim(backend="virtual_gpu", devices="TitanBlack:2")
        ref = pool()
        ref.run(12)
        first = pool()
        first.run(6)
        first.save_checkpoint(tmp_path / "cp.npz")
        for cp in (first.checkpoint(), Checkpoint.load(tmp_path / "cp.npz")):
            assert cp.modelled_halo_time_ms == first.modelled_halo_time_ms
            resumed = pool()
            resumed.restore(cp)
            resumed.run(6)
            np.testing.assert_array_equal(resumed.curr, ref.curr)
            assert ref.modelled_halo_time_ms > 0
            assert resumed.modelled_halo_time_ms == pytest.approx(
                ref.modelled_halo_time_ms)

    def test_archive_without_halo_time_loads(self, tmp_path):
        """Archives written before ``modelled_halo_time_ms`` was stored
        (v1 and early v2) load with it zero."""
        import json
        path = tmp_path / "cp.npz"
        make_sim().save_checkpoint(path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(bytes(data["meta"]).decode())
        del meta["modelled_halo_time_ms"]
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **data)
        assert Checkpoint.load(path).modelled_halo_time_ms == 0.0

    def test_periodic_checkpoints_during_run(self):
        sim = make_sim(checkpoint_interval=4)
        sim.run(10)
        assert sim.last_checkpoint is not None
        assert sim.last_checkpoint.time_step == 8

    def test_npz_roundtrip(self, tmp_path):
        path = tmp_path / "cp.npz"
        sim = make_sim("fd_mm")
        sim.run(6)
        sim.save_checkpoint(path)

        ref = make_sim("fd_mm")
        ref.run(11)

        resumed = make_sim("fd_mm")
        resumed.load_checkpoint(path)
        resumed.run(5)
        np.testing.assert_array_equal(resumed.curr, ref.curr)
        np.testing.assert_array_equal(resumed.g1, ref.g1)
        np.testing.assert_array_equal(resumed.receiver_signal("mic"),
                                      ref.receiver_signal("mic"))

    @staticmethod
    def _legacy_archive(path, version, backend):
        """An ``fd_mm`` run's archive after 6 steps, rewritten as format
        ``version`` (1 or 2) was written: two branch velocities, ``v2``
        the one the next step reads and ``v1`` the one before (here
        NaN, which a resumed run must never read), and in v1 a third
        level ``nxt``."""
        import json
        sim = make_sim("fd_mm", backend=backend)
        sim.run(6)
        sim.save_checkpoint(path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        assert "nxt" not in data and "v1" not in data and "v2" not in data
        meta = json.loads(bytes(data["meta"]).decode())
        assert meta["version"] == 3
        meta["version"] = version
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        data["v2"] = data.pop("v")
        data["v1"] = np.full_like(data["v2"], np.nan)
        assert np.any(data["v2"] != 0)
        if version == 1:
            data["nxt"] = np.full_like(data["prev"], np.nan)
        np.savez(path, **data)
        return data["v2"]

    def _resumes_bit_identically(self, path, backend):
        ref = make_sim("fd_mm", backend=backend)
        ref.run(11)
        resumed = make_sim("fd_mm", backend=backend)
        resumed.load_checkpoint(path)
        assert resumed.time_step == 6
        resumed.run(5)
        for name in ("curr", "prev", "g1", "v"):
            np.testing.assert_array_equal(getattr(resumed, name),
                                          getattr(ref, name))
        np.testing.assert_array_equal(resumed.receiver_signal("mic"),
                                      ref.receiver_signal("mic"))

    @needs_compiled_tier
    def test_v1_archive_roundtrip(self, tmp_path):
        """v3 archives carry neither ``nxt`` nor a second velocity; a v1
        archive, which carries both, still loads — ``nxt`` ignored, its
        ``v2`` as ``v`` — and resumes bit-identically on the two-level
        ``numba`` path."""
        path = tmp_path / "v1.npz"
        v2 = self._legacy_archive(path, 1, "numba")
        assert np.array_equal(Checkpoint.load(path).v, v2)
        self._resumes_bit_identically(path, "numba")

    @pytest.mark.parametrize("backend", ["numpy", "virtual_gpu"])
    def test_v2_archive_resumes_from_its_v2(self, tmp_path, backend):
        """A v2 archive — what a worker resuming a job checkpointed by
        the previous release reads — holds ``v1 != v2`` and loads as
        ``v == v2``, the velocity its next step reads; the resumed run
        is bit-identical to an uninterrupted one."""
        path = tmp_path / "v2.npz"
        v2 = self._legacy_archive(path, 2, backend)
        cp = Checkpoint.load(path)
        assert np.array_equal(cp.v, v2) and not hasattr(cp, "v1")
        self._resumes_bit_identically(path, backend)

    def test_mismatched_checkpoint_refused(self):
        cp = make_sim("fi_mm").checkpoint()
        other = make_sim("fd_mm")
        with pytest.raises(ValueError, match="checkpoint mismatch"):
            other.restore(cp)

    @staticmethod
    def _room_sim(scheme, shape):
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(14, 12, 10), shape()), scheme=scheme,
            backend="numpy-steady"))
        sim.add_impulse("center")
        sim.add_receiver("mic", "center")
        sim.run(3)
        return sim

    @staticmethod
    def _state(sim):
        return ([a.copy() for a in (sim.prev, sim.curr, sim.g1, sim.v)],
                sim.time_step, sim.receiver_signal("mic"))

    def _refused_untouched(self, sim, path):
        before = self._state(sim)
        with pytest.raises(ValueError, match="checkpoint mismatch"):
            sim.load_checkpoint(path)
        arrays, step, signal = self._state(sim)
        assert step == before[1]
        assert np.array_equal(signal, before[2])
        for a, b in zip(arrays, before[0]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", ["fi_mm", "fd_mm"])
    def test_another_rooms_checkpoint_is_refused(self, scheme, tmp_path):
        """Same grid, scheme and precision, another room: the archive's
        boundary-point count refuses it, before anything is written (an
        ``fi_mm`` one has empty branch state, so no shape differs)."""
        path = tmp_path / "dome.npz"
        self._room_sim(scheme, DomeRoom).save_checkpoint(path)
        assert Checkpoint.load(path).num_boundary_points == 272
        box = self._room_sim(scheme, BoxRoom)
        assert box.topology.num_boundary_points == 480
        self._refused_untouched(box, path)

    def test_unstamped_archive_is_checked_by_shape(self, tmp_path):
        """An archive written before the boundary-point count was stamped
        still loads; a mismatched one is refused on its first wrong
        shape, before anything is written."""
        import json
        path = tmp_path / "dome.npz"
        self._room_sim("fd_mm", DomeRoom).save_checkpoint(path)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(bytes(data["meta"]).decode())
        del meta["num_boundary_points"]
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **data)
        assert Checkpoint.load(path).num_boundary_points is None
        self._refused_untouched(self._room_sim("fd_mm", BoxRoom), path)
        dome = self._room_sim("fd_mm", DomeRoom)
        dome.load_checkpoint(path)
        assert dome.time_step == 3

    def test_unsupported_version_refused(self, tmp_path):
        path = tmp_path / "cp.npz"
        sim = make_sim()
        sim.save_checkpoint(path)
        import json
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            Checkpoint.load(path)


class TestAtomicSave:
    def test_interrupted_save_leaves_old_checkpoint_intact(self, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "cp.npz"
        sim = make_sim()
        sim.run(4)
        sim.save_checkpoint(path)
        good = path.read_bytes()

        sim.run(3)
        killed = make_sim()
        killed.run(2)

        def die_mid_write(f, **arrays):
            f.write(b"half a checkpoint")
            raise KeyboardInterrupt("power cut mid-save")

        monkeypatch.setattr(np, "savez", die_mid_write)
        with pytest.raises(KeyboardInterrupt):
            sim.checkpoint().save(path)
        # the torn write never reached the checkpoint's real name ...
        assert path.read_bytes() == good
        # ... no tmp litter survives the interrupt ...
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.npz"]
        # ... and the old checkpoint still restores
        monkeypatch.undo()
        resumed = make_sim()
        resumed.load_checkpoint(path)
        assert resumed.time_step == 4

    def test_save_appends_npz_suffix_like_np_savez(self, tmp_path):
        sim = make_sim()
        sim.run(2)
        sim.save_checkpoint(tmp_path / "bare")        # no suffix given
        assert (tmp_path / "bare.npz").exists()
        resumed = make_sim()
        resumed.load_checkpoint(tmp_path / "bare.npz")
        assert resumed.time_step == 2

    def test_load_applies_the_suffix_rule_of_save(self, tmp_path):
        """The path a checkpoint was saved under loads it, with or
        without the ``.npz`` that save appended."""
        sim = make_sim()
        sim.run(2)
        sim.save_checkpoint(tmp_path / "cp")
        for path in (tmp_path / "cp", str(tmp_path / "cp")):
            resumed = make_sim()
            resumed.load_checkpoint(path)
            assert resumed.time_step == 2
            assert Checkpoint.load(path).time_step == 2

    def test_on_checkpoint_hook_fires_per_boundary(self):
        seen = []
        sim = make_sim(checkpoint_interval=3,
                       on_checkpoint=lambda cp: seen.append(cp.time_step))
        sim.run(10)
        assert seen == [3, 6, 9]

    def test_on_checkpoint_exception_propagates(self):
        class Die(Exception):
            pass

        def hook(cp):
            raise Die(f"at step {cp.time_step}")

        sim = make_sim(checkpoint_interval=2, on_checkpoint=hook)
        with pytest.raises(Die, match="at step 2"):
            sim.run(6)
        # the checkpoint was taken before the hook ran: a supervisor
        # can resume from exactly where the "crash" hit
        assert sim.last_checkpoint.time_step == 2


class TestHealthMonitor:
    def test_nan_detected_with_last_good_checkpoint(self):
        sim = make_sim(checkpoint_interval=2, health_interval=1)
        sim.run(4)
        sim.curr[sim.point_index("center")] = np.nan
        with pytest.raises(SimulationDiverged) as ei:
            sim.run(3)
        assert "non-finite" in ei.value.reason
        assert ei.value.checkpoint is not None
        assert ei.value.checkpoint.time_step == 4
        # the checkpoint it hands back really is restartable
        fresh = make_sim()
        fresh.restore(ei.value.checkpoint)
        fresh.run(2)
        assert np.isfinite(fresh.curr).all()

    def test_energy_growth_detected(self):
        # a threshold below 1 treats steady energy as runaway: the monitor
        # trips at the second reading (the first sets the reference)
        sim = make_sim(health_interval=1, energy_growth_factor=0.5)
        with pytest.raises(SimulationDiverged, match="energy"):
            sim.run(4)

    def test_healthy_run_passes_monitoring(self):
        sim = make_sim(health_interval=1, checkpoint_interval=3)
        ref = make_sim()
        sim.run(10)
        ref.run(10)
        np.testing.assert_array_equal(sim.curr, ref.curr)

    def test_monitoring_off_by_default(self):
        sim = make_sim()
        sim.curr[sim.point_index("center")] = np.nan
        sim.run(2)          # no monitor, no exception
        assert sim.last_checkpoint is None
