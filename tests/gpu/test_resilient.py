"""Recovery policies: retry/backoff, degradation, fallbacks, policy log."""

import dataclasses

import numpy as np
import pytest

from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import two_kernel_host
from repro.acoustics.materials import MaterialTable, default_fi_materials
from repro.acoustics.topology import build_topology
from repro.lift.codegen.host import compile_host
from repro.gpu import (AMD_HD7970, ClInvalidKernelArgs, ClInvalidValue,
                       FaultPlan, FaultSpec, NVIDIA_TITAN_BLACK,
                       ResilientGPU, RetryPolicy, VirtualGPU)

from .conftest import step_launches


@pytest.fixture(scope="module")
def problem():
    g = Grid3D(14, 12, 10)
    topo = build_topology(Room(g, DomeRoom()), num_materials=4)
    rng = np.random.default_rng(5)
    N = g.num_points
    guard = g.nx * g.ny

    def state():
        a = np.zeros(N + guard)
        ins = topo.room.inside_mask().reshape(-1)
        a[:N][ins] = rng.standard_normal(int(ins.sum()))
        return a

    table = MaterialTable.from_fi(default_fi_materials(4))
    host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
    inputs = dict(boundaries=topo.boundary_indices, materialIdx=topo.material,
                  neighbors=np.concatenate([topo.nbrs,
                                            np.zeros(guard, np.int32)]),
                  betaTable=table.beta, prev1_h=state(), prev2_h=state(),
                  lambda_h=g.courant, Nx_h=g.nx, NxNy_h=g.nx * g.ny)
    sizes = dict(N=N, NP=N + guard, K=topo.num_boundary_points,
                 M=table.num_materials)
    return dict(host=host, inputs=inputs, sizes=sizes, N=N)


def run(gpu, p, **kw):
    return gpu.execute(p["host"], p["inputs"], p["sizes"], **kw)


class TestRetry:
    def test_transient_fault_retried_with_modelled_backoff(self, problem):
        plan = FaultPlan([FaultSpec("launch_abort", steps=(0,))], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(backoff_ms=0.25))
        res = run(gpu, problem, fault_step=0)
        # step-targeted faults fire once per launch site: both the volume
        # and the boundary kernel abort once, then the run recovers
        actions = [o.action for o in gpu.log]
        assert actions == ["retry", "retry", "recovered"]
        assert gpu.log[0].backoff_ms == 0.25
        # the modelled waits are profiling events, outside kernel time
        assert res.overhead_time_ms() == pytest.approx(0.25 + 0.5)
        clean = run(VirtualGPU(NVIDIA_TITAN_BLACK), problem)
        assert res.kernel_time_ms() == clean.kernel_time_ms()
        np.testing.assert_array_equal(np.asarray(res.result),
                                      np.asarray(clean.result))

    def test_backoff_grows_exponentially(self, problem):
        plan = FaultPlan([FaultSpec("device_lost", rate=1.0,
                                    max_count=3)], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(max_attempts=4, backoff_ms=0.1,
                                       backoff_factor=2.0))
        res = run(gpu, problem)
        waits = [o.backoff_ms for o in gpu.log if o.action == "retry"]
        assert waits == [0.1, 0.2, 0.4]
        assert res.overhead_time_ms() == pytest.approx(0.7)

    def test_programming_errors_are_not_retried(self, problem):
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK))
        bad = {k: v for k, v in problem["inputs"].items() if k != "betaTable"}
        with pytest.raises(ClInvalidKernelArgs):
            gpu.execute(problem["host"], bad, problem["sizes"])
        assert [o.action for o in gpu.log] == ["raise"]
        with pytest.raises(ClInvalidValue):
            gpu.execute(problem["host"], problem["inputs"], {"N": 1})


class TestDegradeAndFallback:
    def test_persistent_launch_abort_degrades_workgroup(self, problem):
        plan = FaultPlan([FaultSpec("launch_abort", rate=1.0,
                                    max_count=4)], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(max_attempts=4, backoff_ms=0.01))
        res = run(gpu, problem)
        assert any(o.action == "degrade_launch" for o in gpu.log)
        # the degraded stage runs with the smallest workgroup
        kernels = [e for e in res.events if e.kind == "kernel"]
        assert all(e.timing.workgroup == NVIDIA_TITAN_BLACK.warp_size
                   for e in kernels)
        clean = run(VirtualGPU(NVIDIA_TITAN_BLACK), problem)
        np.testing.assert_array_equal(np.asarray(res.result),
                                      np.asarray(clean.result))

    def test_requeue_on_fallback_device(self, problem):
        # the primary persistently loses the device; the job re-queues on
        # the AMD board and completes there
        plan = FaultPlan([FaultSpec("device_lost", rate=1.0)], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(max_attempts=2, backoff_ms=0.01),
                           fallback_devices=[AMD_HD7970])
        res = run(gpu, problem)
        assert any(o.action == "fallback_device" for o in gpu.log)
        clean = run(VirtualGPU(AMD_HD7970), problem)
        np.testing.assert_array_equal(np.asarray(res.result),
                                      np.asarray(clean.result))
        assert res.kernel_time_ms() == clean.kernel_time_ms()

    def test_oversized_buffer_requeues_on_larger_device(self, problem):
        state_bytes = (problem["sizes"]["NP"]) * 8
        small = dataclasses.replace(NVIDIA_TITAN_BLACK, name="small",
                                    global_mem_bytes=state_bytes * 2)
        gpu = ResilientGPU(VirtualGPU(small),
                           fallback_devices=[NVIDIA_TITAN_BLACK])
        res = run(gpu, problem)
        assert any(o.action == "fallback_device" for o in gpu.log)
        assert res.result is not None

    def test_host_fallback_charges_no_gpu_time(self, problem):
        plan = FaultPlan([FaultSpec("device_lost", rate=1.0)], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(max_attempts=2, backoff_ms=0.01))
        res = run(gpu, problem)
        assert any(o.action == "host_fallback" for o in gpu.log)
        assert res.kernel_time_ms() == 0.0
        assert res.transfer_time_ms() == 0.0
        assert any(e.kind == "host_kernel" for e in res.events)
        clean = run(VirtualGPU(NVIDIA_TITAN_BLACK), problem)
        np.testing.assert_array_equal(np.asarray(res.result),
                                      np.asarray(clean.result))

    def test_host_fallback_disabled_surfaces_error(self, problem):
        from repro.gpu import ClDeviceLost
        plan = FaultPlan([FaultSpec("device_lost", rate=1.0)], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan),
                           RetryPolicy(max_attempts=2, backoff_ms=0.01),
                           host_fallback=False)
        with pytest.raises(ClDeviceLost):
            run(gpu, problem)
        assert gpu.log[-1].action == "raise"


class TestTransparency:
    """Opt-in guarantee: without faults, the wrapper is a no-op."""

    def test_identical_results_and_times_without_faults(self, problem):
        plain = run(VirtualGPU(NVIDIA_TITAN_BLACK), problem)
        wrapped = run(ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK)), problem)
        np.testing.assert_array_equal(np.asarray(plain.result),
                                      np.asarray(wrapped.result))
        assert plain.kernel_time_ms() == wrapped.kernel_time_ms()
        assert plain.transfer_time_ms() == wrapped.transfer_time_ms()
        assert wrapped.overhead_time_ms() == 0.0

    def test_execute_many_supported(self, problem):
        plan = FaultPlan([FaultSpec("launch_abort", steps=(1,))], seed=1)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan))
        rot = [("prev2_h", "prev1_h", "__out__")]
        a = gpu.execute_many(problem["host"], problem["inputs"],
                             problem["sizes"], 4, rotations=rot)
        b = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), problem["host"],
                          problem["inputs"], problem["sizes"], 4, rot)
        assert gpu.recovered_faults() >= 1
        n = problem["sizes"]["N"]
        np.testing.assert_array_equal(a.buffers["final:prev1_h"][:n],
                                      b.buffers["final:prev1_h"][:n])
        assert a.kernel_time_ms() == b.kernel_time_ms()
