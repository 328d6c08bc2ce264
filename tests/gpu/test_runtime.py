"""Tests for the virtual OpenCL runtime executing LIFT host plans."""

import numpy as np
import pytest

from repro.acoustics import kernels_numpy as kn
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import two_kernel_host
from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology
from repro.lift.codegen.host import compile_host
from repro.gpu import (HANDWRITTEN_TRAITS, LIFT_TRAITS, NVIDIA_TITAN_BLACK,
                       AMD_HD7970, VirtualGPU)


@pytest.fixture(scope="module")
def problem():
    g = Grid3D(14, 12, 10)
    topo = build_topology(Room(g, DomeRoom()), num_materials=4)
    rng = np.random.default_rng(5)
    N = g.num_points
    guard = g.nx * g.ny
    ins = topo.room.inside_mask().reshape(-1)

    def state():
        a = np.zeros(N + guard)
        a[:N][ins] = rng.standard_normal(int(ins.sum()))
        return a

    return dict(g=g, topo=topo, N=N, guard=guard, prev=state(),
                curr=state(), rng=rng,
                nbrs_guarded=np.concatenate(
                    [topo.nbrs, np.zeros(guard, np.int32)]))


def fi_mm_inputs(p, table):
    g = p["g"]
    return dict(boundaries=p["topo"].boundary_indices,
                materialIdx=p["topo"].material,
                neighbors=p["nbrs_guarded"], betaTable=table.beta,
                prev1_h=p["curr"], prev2_h=p["prev"],
                lambda_h=g.courant, Nx_h=g.nx, NxNy_h=g.nx * g.ny)


def fi_mm_sizes(p, table):
    return dict(N=p["N"], NP=p["N"] + p["guard"],
                K=p["topo"].num_boundary_points, M=table.num_materials)


class TestExecution:
    def test_fi_mm_matches_baseline(self, problem):
        p = problem
        table = MaterialTable.from_fi(default_fi_materials(4))
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK, LIFT_TRAITS)
        res = gpu.execute(host, fi_mm_inputs(p, table), fi_mm_sizes(p, table))
        ref = np.zeros(p["N"])
        kn.volume_step(p["prev"][:p["N"]], p["curr"][:p["N"]], ref,
                       p["topo"].nbrs, p["g"].shape, p["g"].courant)
        kn.fi_mm_boundary(ref, p["prev"][:p["N"]],
                          p["topo"].boundary_indices, p["topo"].nbrs,
                          p["topo"].material, table.beta, p["g"].courant)
        np.testing.assert_allclose(np.asarray(res.result)[:p["N"]], ref,
                                   atol=1e-13)

    def test_fd_mm_matches_baseline(self, problem):
        p = problem
        table = MaterialTable.from_fd(default_fd_materials(4), 3)
        K = p["topo"].num_boundary_points
        rng = np.random.default_rng(8)
        g1 = rng.standard_normal(3 * K)
        v2 = rng.standard_normal(3 * K)
        host = compile_host(two_kernel_host("fd_mm", "double", 3).program,
                            "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK, LIFT_TRAITS)
        inputs = fi_mm_inputs(p, table)
        inputs.update(BI_h=table.BI.reshape(-1), DI_h=table.DI.reshape(-1),
                      F_h=table.F.reshape(-1), D_h=table.D.reshape(-1),
                      g1_h=g1, v2_h=v2, v1_h=np.zeros(3 * K), K=K)
        res = gpu.execute(host, inputs, fi_mm_sizes(p, table))
        ref = np.zeros(p["N"])
        kn.volume_step(p["prev"][:p["N"]], p["curr"][:p["N"]], ref,
                       p["topo"].nbrs, p["g"].shape, p["g"].courant)
        g1r, v1r, v2r = g1.copy(), np.zeros(3 * K), v2.copy()
        kn.fd_mm_boundary(ref, p["prev"][:p["N"]],
                          p["topo"].boundary_indices, p["topo"].nbrs,
                          p["topo"].material, table.beta, table.BI,
                          table.DI, table.F, table.D, g1r, v1r, v2r,
                          p["g"].courant)
        np.testing.assert_allclose(np.asarray(res.result)[:p["N"]], ref,
                                   atol=1e-12)
        # branch state written through the device buffers
        bg1 = res.buffers[[n for n in res.buffers if n.startswith("d_g1_h")][0]]
        bv1 = res.buffers[[n for n in res.buffers if n.startswith("d_v1_h")][0]]
        np.testing.assert_allclose(bg1, g1r, atol=1e-12)
        np.testing.assert_allclose(bv1, v1r, atol=1e-12)


class TestProfiling:
    def _run(self, p, device=NVIDIA_TITAN_BLACK, traits=LIFT_TRAITS):
        table = MaterialTable.from_fi(default_fi_materials(4))
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(device, traits)
        return gpu.execute(host, fi_mm_inputs(p, table),
                           fi_mm_sizes(p, table))

    def test_one_event_per_kernel(self, problem):
        res = self._run(problem)
        kernels = [e for e in res.events if e.kind == "kernel"]
        assert [e.name for e in kernels] == ["volume_handling_kernel",
                                             "boundary_handling_kernel"]

    def test_kernel_times_positive(self, problem):
        res = self._run(problem)
        assert res.kernel_time_ms() > 0
        for e in res.events:
            assert e.duration_ms > 0

    def test_kernel_time_excludes_transfers(self, problem):
        res = self._run(problem)
        assert res.kernel_time_ms() + res.transfer_time_ms() == pytest.approx(
            sum(e.duration_ms for e in res.events))

    def test_volume_kernel_dominates(self, problem):
        """The boundary is a small fraction of the volume work (Fig. 2
        direction) even at this tiny size."""
        res = self._run(problem)
        kernels = {e.name: e.duration_ms for e in res.events
                   if e.kind == "kernel"}
        assert kernels["boundary_handling_kernel"] \
            < kernels["volume_handling_kernel"] * 2

    def test_timing_metadata_attached(self, problem):
        res = self._run(problem)
        kernels = [e for e in res.events if e.kind == "kernel"]
        for e in kernels:
            assert e.timing is not None
            assert e.timing.bytes_per_item > 0

    def test_results_identical_across_devices(self, problem):
        """Modelled time differs, computed values must not."""
        a = self._run(problem, NVIDIA_TITAN_BLACK)
        b = self._run(problem, AMD_HD7970)
        np.testing.assert_array_equal(np.asarray(a.result),
                                      np.asarray(b.result))
        assert a.kernel_time_ms() != b.kernel_time_ms()

    def test_traits_do_not_change_results(self, problem):
        a = self._run(problem, traits=LIFT_TRAITS)
        b = self._run(problem, traits=HANDWRITTEN_TRAITS)
        np.testing.assert_array_equal(np.asarray(a.result),
                                      np.asarray(b.result))

    def test_autotune_off_uses_fixed_wg(self, problem):
        table = MaterialTable.from_fi(default_fi_materials(4))
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK, LIFT_TRAITS, autotune=False,
                         workgroup=64)
        res = gpu.execute(host, fi_mm_inputs(problem, table),
                          fi_mm_sizes(problem, table))
        kernels = [e for e in res.events if e.kind == "kernel"]
        assert all(e.timing.workgroup == 64 for e in kernels)


class TestIterativeExecution:
    """`execute_many`: the paper's 'kernels are executed iteratively' with
    resident device buffers and leapfrog buffer rotation."""

    def _ref(self, problem, scheme, steps):
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        room = Room(problem["g"], DomeRoom())
        mats = (default_fd_materials(4) if scheme == "fd_mm"
                else default_fi_materials(4))
        sim = RoomSimulation(SimConfig(room=room, scheme=scheme,
                                       backend="numpy", materials=mats))
        sim.add_impulse("center")
        sim.run(steps)
        return sim

    def test_fi_mm_six_steps_match_reference(self, problem):
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        steps = 6
        ref = self._ref(problem, "fi_mm", steps)
        sim = RoomSimulation(SimConfig(room=Room(problem["g"], DomeRoom()),
                                       scheme="fi_mm", backend="numpy",
                                       materials=default_fi_materials(4)))
        sim.add_impulse("center")
        g = sim.grid
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        res = gpu.execute_many(host, dict(
            boundaries=sim.topology.boundary_indices,
            materialIdx=sim.topology.material,
            neighbors=sim._nbrs_guarded, betaTable=sim.table.beta,
            prev1_h=sim.curr, prev2_h=sim.prev, lambda_h=g.courant,
            Nx_h=g.nx, NxNy_h=g.nx * g.ny), sim._size_env(), steps=steps,
            rotations=[("prev2_h", "prev1_h", "__out__")])
        np.testing.assert_allclose(
            res.buffers["final:prev1_h"][:sim._N], ref.curr[:ref._N],
            atol=1e-15)

    def test_fd_mm_six_steps_match_reference(self, problem):
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        steps = 6
        ref = self._ref(problem, "fd_mm", steps)
        sim = RoomSimulation(SimConfig(room=Room(problem["g"], DomeRoom()),
                                       scheme="fd_mm", backend="numpy",
                                       materials=default_fd_materials(4)))
        sim.add_impulse("center")
        g = sim.grid
        K = sim.topology.num_boundary_points
        host = compile_host(two_kernel_host("fd_mm", "double", 3).program,
                            "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        res = gpu.execute_many(host, dict(
            boundaries=sim.topology.boundary_indices,
            materialIdx=sim.topology.material,
            neighbors=sim._nbrs_guarded, betaTable=sim.table.beta,
            BI_h=sim.table.BI.reshape(-1), DI_h=sim.table.DI.reshape(-1),
            F_h=sim.table.F.reshape(-1), D_h=sim.table.D.reshape(-1),
            g1_h=sim.g1, v2_h=sim.v2, v1_h=sim.v1, K=K,
            prev1_h=sim.curr, prev2_h=sim.prev, lambda_h=g.courant,
            Nx_h=g.nx, NxNy_h=g.nx * g.ny), sim._size_env(), steps=steps,
            rotations=[("prev2_h", "prev1_h", "__out__"),
                       ("v2_h", "v1_h")])
        np.testing.assert_allclose(
            res.buffers["final:prev1_h"][:sim._N], ref.curr[:ref._N],
            atol=1e-15)
        np.testing.assert_allclose(res.buffers["final:g1_h"], ref.g1,
                                   atol=1e-15)

    def test_single_name_cycle_is_identity(self, problem):
        """A one-element rotation cycle must behave exactly like no
        rotation for that name."""
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        sim = RoomSimulation(SimConfig(room=Room(problem["g"], DomeRoom()),
                                       scheme="fi_mm", backend="numpy",
                                       materials=default_fi_materials(4)))
        g = sim.grid
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        inputs = dict(boundaries=sim.topology.boundary_indices,
                      materialIdx=sim.topology.material,
                      neighbors=sim._nbrs_guarded,
                      betaTable=sim.table.beta, prev1_h=sim.curr,
                      prev2_h=sim.prev, lambda_h=g.courant, Nx_h=g.nx,
                      NxNy_h=g.nx * g.ny)
        a = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
            host, inputs, sim._size_env(), 3, rotations=[("prev1_h",)])
        b = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
            host, inputs, sim._size_env(), 3, rotations=None)
        np.testing.assert_array_equal(np.asarray(a.result),
                                      np.asarray(b.result))
        np.testing.assert_array_equal(a.buffers["final:prev1_h"],
                                      b.buffers["final:prev1_h"])

    def test_unknown_rotation_name_is_typed_error(self, problem):
        from repro.gpu import ClInvalidValue
        table = MaterialTable.from_fi(default_fi_materials(4))
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        with pytest.raises(ClInvalidValue) as ei:
            gpu.execute_many(host, fi_mm_inputs(problem, table),
                             fi_mm_sizes(problem, table), steps=2,
                             rotations=[("prev2_h", "not_a_param")])
        msg = str(ei.value)
        assert "not_a_param" in msg
        assert "prev1_h" in msg      # the rotatable names are listed
        assert "__out__" in ei.value.context["available"]

    def test_final_bindings_deterministic_across_runs(self, problem):
        table = MaterialTable.from_fi(default_fi_materials(4))
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        rot = [("prev2_h", "prev1_h", "__out__")]
        runs = []
        for _ in range(2):
            res = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
                host, fi_mm_inputs(problem, table),
                fi_mm_sizes(problem, table), steps=5, rotations=rot)
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
        from repro.acoustics import RoomSimulation, SimConfig
        from repro.acoustics.geometry import DomeRoom, Room
        sim = RoomSimulation(SimConfig(room=Room(problem["g"], DomeRoom()),
                                       scheme="fi_mm", backend="numpy",
                                       materials=default_fi_materials(4)))
        g = sim.grid
        host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = dict(boundaries=sim.topology.boundary_indices,
                      materialIdx=sim.topology.material,
                      neighbors=sim._nbrs_guarded,
                      betaTable=sim.table.beta, prev1_h=sim.curr,
                      prev2_h=sim.prev, lambda_h=g.courant, Nx_h=g.nx,
                      NxNy_h=g.nx * g.ny)
        rot = [("prev2_h", "prev1_h", "__out__")]
        r1 = gpu.execute_many(host, inputs, sim._size_env(), 1, rot)
        r8 = gpu.execute_many(host, inputs, sim._size_env(), 8, rot)
        transfers1 = sum(1 for e in r1.events if e.kind != "kernel")
        transfers8 = sum(1 for e in r8.events if e.kind != "kernel")
        kernels8 = sum(1 for e in r8.events if e.kind == "kernel")
        assert transfers1 == transfers8
        assert kernels8 == 16
