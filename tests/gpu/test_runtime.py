"""Tests for the virtual OpenCL runtime executing LIFT host plans."""

import numpy as np
import pytest

from repro.acoustics import kernels_numpy as kn
from repro.acoustics.lift_programs import LEAPFROG, compiled_host
from repro.acoustics.materials import (default_fd_materials,
                                       default_fi_materials)
from repro.gpu import (HANDWRITTEN_TRAITS, LIFT_TRAITS, NVIDIA_TITAN_BLACK,
                       AMD_HD7970, VirtualGPU)

from ..listing5 import listing5_problem


@pytest.fixture(scope="module")
def problem():
    return listing5_problem()


def _execute(p, device=NVIDIA_TITAN_BLACK, traits=LIFT_TRAITS, **kw):
    return VirtualGPU(device, traits, **kw).execute(p["host"], p["inputs"],
                                                    p["sizes"])


def _volume_reference(p):
    """The volume update of the problem's state, by the NumPy baseline."""
    N, g = p["N"], p["grid"]
    ref = np.zeros(N)
    kn.volume_step(p["inputs"]["prev2_h"][:N], p["inputs"]["prev1_h"][:N],
                   ref, p["topo"].nbrs, g.shape, g.courant)
    return ref


class TestExecution:
    def test_fi_mm_matches_baseline(self, problem):
        p, N = problem, problem["N"]
        res = _execute(p)
        ref = _volume_reference(p)
        topo = p["topo"]
        kn.fi_mm_boundary(ref, p["inputs"]["prev2_h"][:N],
                          topo.boundary_indices, topo.nbrs, topo.material,
                          p["table"].beta, p["grid"].courant)
        np.testing.assert_allclose(np.asarray(res.result)[:N], ref,
                                   atol=1e-13)

    def test_fd_mm_matches_baseline(self):
        p = listing5_problem("fd_mm", branch_seed=8)
        N, K, table, topo = (p["N"], p["sizes"]["K"], p["table"],
                             p["topo"])
        g1, v2 = p["inputs"]["g1_h"], p["inputs"]["v2_h"]
        res = _execute(p)
        ref = _volume_reference(p)
        g1r, v1r, v2r = g1.copy(), np.zeros(3 * K), v2.copy()
        kn.fd_mm_boundary(ref, p["inputs"]["prev2_h"][:N],
                          topo.boundary_indices, topo.nbrs, topo.material,
                          table.beta, table.BI, table.DI, table.F, table.D,
                          g1r, v1r, v2r, p["grid"].courant)
        np.testing.assert_allclose(np.asarray(res.result)[:N], ref,
                                   atol=1e-12)
        # branch state written through the device buffers
        bg1 = res.buffers[[n for n in res.buffers if n.startswith("d_g1_h")][0]]
        bv1 = res.buffers[[n for n in res.buffers if n.startswith("d_v1_h")][0]]
        np.testing.assert_allclose(bg1, g1r, atol=1e-12)
        np.testing.assert_allclose(bv1, v1r, atol=1e-12)


class TestProfiling:
    def test_one_event_per_kernel(self, problem):
        res = _execute(problem)
        kernels = [e for e in res.events if e.kind == "kernel"]
        assert [e.name for e in kernels] == ["volume_handling_kernel",
                                             "boundary_handling_kernel"]

    def test_kernel_times_positive(self, problem):
        res = _execute(problem)
        assert res.kernel_time_ms() > 0
        for e in res.events:
            assert e.duration_ms > 0

    def test_kernel_time_excludes_transfers(self, problem):
        res = _execute(problem)
        assert res.kernel_time_ms() + res.transfer_time_ms() == pytest.approx(
            sum(e.duration_ms for e in res.events))

    def test_volume_kernel_dominates(self, problem):
        """The boundary is a small fraction of the volume work (Fig. 2
        direction) even at this tiny size."""
        res = _execute(problem)
        kernels = {e.name: e.duration_ms for e in res.events
                   if e.kind == "kernel"}
        assert kernels["boundary_handling_kernel"] \
            < kernels["volume_handling_kernel"] * 2

    def test_timing_metadata_attached(self, problem):
        res = _execute(problem)
        kernels = [e for e in res.events if e.kind == "kernel"]
        for e in kernels:
            assert e.timing is not None
            assert e.timing.bytes_per_item > 0

    def test_results_identical_across_devices(self, problem):
        """Modelled time differs, computed values must not."""
        a = _execute(problem, NVIDIA_TITAN_BLACK)
        b = _execute(problem, AMD_HD7970)
        np.testing.assert_array_equal(np.asarray(a.result),
                                      np.asarray(b.result))
        assert a.kernel_time_ms() != b.kernel_time_ms()

    def test_traits_do_not_change_results(self, problem):
        a = _execute(problem, traits=LIFT_TRAITS)
        b = _execute(problem, traits=HANDWRITTEN_TRAITS)
        np.testing.assert_array_equal(np.asarray(a.result),
                                      np.asarray(b.result))

    def test_autotune_off_uses_fixed_wg(self, problem):
        res = _execute(problem, autotune=False, workgroup=64)
        kernels = [e for e in res.events if e.kind == "kernel"]
        assert all(e.timing.workgroup == 64 for e in kernels)


class TestIterativeExecution:
    """`execute_many`: the paper's 'kernels are executed iteratively' with
    resident device buffers and leapfrog buffer rotation."""

    @staticmethod
    def _sim(problem, scheme, steps=0):
        """A NumPy-backend simulation of ``scheme`` on the problem's
        room, an impulse at its centre, after ``steps`` steps."""
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        mats = (default_fd_materials(4) if scheme == "fd_mm"
                else default_fi_materials(4))
        sim = RoomSimulation(SimConfig(room=Room(problem["grid"], DomeRoom()),
                                       scheme=scheme, backend="numpy",
                                       materials=mats))
        sim.add_impulse("center")
        sim.run(steps)
        return sim

    def test_fi_mm_six_steps_match_reference(self, problem):
        steps = 6
        ref = self._sim(problem, "fi_mm", steps)
        sim = self._sim(problem, "fi_mm")
        res = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
            problem["host"], *sim._vgpu_io(), steps=steps,
            rotations=[LEAPFROG])
        np.testing.assert_allclose(
            res.buffers["final:prev1_h"][:sim._N], ref.curr[:ref._N],
            atol=1e-15)

    @classmethod
    def _fd_mm(cls, problem):
        """An ``fd_mm`` simulation's host program, inputs and sizes, its
        one branch velocity ``v`` bound to both ``v2_h`` and ``v1_h``."""
        sim = cls._sim(problem, "fd_mm")
        return (sim, compiled_host("fd_mm", "double", 3), *sim._vgpu_io())

    def test_fd_mm_six_steps_match_reference(self, problem):
        """The step writes the new branch velocity over the one it read,
        so ``v2_h`` ends holding the velocity the next step reads — with
        only the leapfrog cycle rotating."""
        steps = 6
        ref = self._sim(problem, "fd_mm", steps)
        sim, host, inputs, sizes = self._fd_mm(problem)
        res = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
            host, inputs, sizes, steps=steps, rotations=[LEAPFROG])
        np.testing.assert_allclose(
            res.buffers["final:prev1_h"][:sim._N], ref.curr[:ref._N],
            atol=1e-15)
        np.testing.assert_allclose(res.buffers["final:g1_h"], ref.g1,
                                   atol=1e-15)
        np.testing.assert_allclose(res.buffers["final:v2_h"], ref.v,
                                   atol=1e-15)

    def test_a_velocity_swap_is_refused(self, problem):
        """A rotation naming a buffer the step updates in place — the
        FD-MM ``v2_h``/``v1_h`` swap of Listing 5 — would undo the
        step's velocity update, so ``execute_many`` refuses it at the
        call, before anything is allocated."""
        from repro.gpu import ClInvalidValue
        _sim, host, inputs, sizes = self._fd_mm(problem)
        with pytest.raises(ClInvalidValue, match="in place") as ei:
            VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                host, inputs, sizes, steps=2,
                rotations=[LEAPFROG, ("v2_h", "v1_h")])
        assert ei.value.context["updated"] == ["v2_h", "v1_h"]

    def test_single_name_cycle_is_identity(self, problem):
        """A one-element rotation cycle names no leapfrog cycle, so
        ``execute_many``, which steps over two time levels, refuses it
        at the call exactly as it refuses no rotations."""
        from repro.gpu import ClInvalidValue
        inputs, sizes = self._sim(problem, "fi_mm")._vgpu_io()
        for rotations in ([("prev1_h",)], None):
            with pytest.raises(ClInvalidValue, match="leapfrog"):
                VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                    problem["host"], inputs, sizes, 3, rotations=rotations)

    def test_unknown_rotation_name_is_typed_error(self, problem):
        from repro.gpu import ClInvalidValue
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        with pytest.raises(ClInvalidValue) as ei:
            gpu.execute_many(problem["host"], problem["inputs"],
                             problem["sizes"], steps=2,
                             rotations=[LEAPFROG,
                                        ("betaTable", "not_a_param")])
        msg = str(ei.value)
        assert "not_a_param" in msg
        assert "prev1_h" in msg      # the rotatable names are listed
        assert "prev1_h" in ei.value.context["available"]

    def test_final_bindings_deterministic_across_runs(self, problem):
        runs = []
        for _ in range(2):
            res = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                problem["host"], problem["inputs"], problem["sizes"],
                steps=5, rotations=[LEAPFROG])
            runs.append(res)
        a, b = runs
        finals_a = sorted(n for n in a.buffers if n.startswith("final:"))
        finals_b = sorted(n for n in b.buffers if n.startswith("final:"))
        assert finals_a == finals_b
        for n in finals_a:
            np.testing.assert_array_equal(a.buffers[n], b.buffers[n])

    def test_transfers_amortised(self, problem):
        """Iterative execution uploads once: transfer events do not scale
        with the number of steps, kernel events do."""
        inputs, sizes = self._sim(problem, "fi_mm")._vgpu_io()
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        rot = [LEAPFROG]
        r1 = gpu.execute_many(problem["host"], inputs, sizes, 1, rot)
        r8 = gpu.execute_many(problem["host"], inputs, sizes, 8, rot)
        transfers1 = sum(1 for e in r1.events if e.kind != "kernel")
        transfers8 = sum(1 for e in r8.events if e.kind != "kernel")
        kernels8 = sum(1 for e in r8.events if e.kind == "kernel")
        assert transfers1 == transfers8
        assert kernels8 == 16
