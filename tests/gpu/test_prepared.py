"""Prepared resident launches: step-invariant work hoisted out of the loop.

``ResidentPlan`` resolves each launch once at setup — steady kernel,
argument list, ``size_kwargs``, resource analysis, precision and the
autotuned timing — leaving only the rebinding of rotating buffers and
the step call per step.
"""

import dataclasses

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import LEAPFROG
from repro.acoustics.materials import default_fi_materials
from repro.gpu import (ClInvalidValue, FaultPlan, FaultSpec,
                       NVIDIA_TITAN_BLACK, ResilientGPU, VirtualGPU)
from repro.gpu.runtime import ResidentPlan

from ..listing5 import listing5_problem
from .conftest import step_launches


@pytest.fixture(scope="module")
def problem():
    return listing5_problem()


ROT = [LEAPFROG]


class TestHoisting:
    def _plan(self, p):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        return ResidentPlan.stepping(gpu, p["host"].plan, p["inputs"],
                                     p["sizes"], ROT, [])

    def test_one_prepared_launch_per_kernel(self, problem):
        state = self._plan(problem)
        assert len(state._prepared) == 2
        for prep in state._prepared:
            assert prep.size_kwargs            # sizes resolved at setup
            assert all(isinstance(v, int)
                       for v in prep.size_kwargs.values())
            assert prep.res is not None        # resources analysed once
            assert prep.precision == "double"

    def test_timing_cached_when_gather_static(self, problem):
        # the boundary-index gather buffer never rotates, so both
        # launches pre-resolve their autotuned timing
        state = self._plan(problem)
        assert all(prep.timing is not None for prep in state._prepared)

    def test_rotating_positions_marked(self, problem):
        state = self._plan(problem)
        rotating = {role for prep in state._prepared
                    for _param, role in prep.rotates}
        # the leapfrog cycle's two levels; the output level never rotates
        assert rotating == {"prev1_h", "prev2_h"}

    def test_run_step_matches_execute_many(self, problem):
        """The compiled step a stepping plan runs (``run_fused``, what
        ``execute_many`` loops over) matches the launches run one by one
        (``execute`` per step, rotated on the host), field and modelled
        kernel time alike."""
        p = problem
        steps = 4
        N = p["N"]
        ref = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), p["host"],
                            p["inputs"], p["sizes"], steps, ROT)
        state = self._plan(p)
        for step in range(steps):
            state.run_fused(step)
            state.rotate()
        res = state.finish()
        for name in ("prev1_h", "prev2_h"):
            np.testing.assert_array_equal(res.buffers[f"final:{name}"][:N],
                                          ref.buffers[f"final:{name}"][:N])
        np.testing.assert_array_equal(res.result[:N], ref.result[:N])
        assert res.kernel_time_ms() == ref.kernel_time_ms()
        # execute() is one step of it, launch by launch: same result,
        # same modelled kernel and upload times
        one = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            p["host"], p["inputs"], p["sizes"])
        many = VirtualGPU(NVIDIA_TITAN_BLACK).execute_many(
            p["host"], p["inputs"], p["sizes"], 1, ROT)
        np.testing.assert_array_equal(one.result[:N], many.result[:N])
        for kind in ("kernel", "h2d"):
            assert (sum(e.duration_ms for e in one.events if e.kind == kind)
                    == sum(e.duration_ms for e in many.events
                           if e.kind == kind)), kind
        # Listing 5's order: every upload precedes the first launch
        kinds = [e.kind for e in one.events]
        assert kinds.index("kernel") > max(
            i for i, k in enumerate(kinds) if k == "h2d")
        assert [e.name for e in one.events if e.kind == "d2h"] == ["result"]


class TestPlanValidation:
    def test_unknown_plan_op_is_typed_error(self, problem):
        """A hand-edited plan with an op the runtime does not know gets
        ``ClInvalidValue`` naming the op, from every entry point."""
        p = problem
        plan = p["host"].plan
        bad = dataclasses.replace(p["host"], plan=dataclasses.replace(
            plan, ops=[*plan.ops, "clFlush(queue)"]))
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        for run in (lambda: gpu.execute(bad, p["inputs"], p["sizes"]),
                    lambda: gpu.execute_many(bad, p["inputs"], p["sizes"],
                                             2, ROT),
                    lambda: ResidentPlan(gpu, bad.plan, p["inputs"],
                                         p["sizes"], ROT, [])):
            with pytest.raises(ClInvalidValue, match="unknown plan op"):
                run()


class TestFaultInjectedIteration:
    def test_execute_many_bit_identical_under_retries(self, problem):
        """A launch abort mid-iteration, recovered by retry, must leave
        the prepared-launch result bit-identical to a fault-free run —
        arenas and prepared state survive the retry."""
        p = problem
        steps = 6
        clean = step_launches(VirtualGPU(NVIDIA_TITAN_BLACK), p["host"],
                              p["inputs"], p["sizes"], steps, ROT)
        plan = FaultPlan([FaultSpec("launch_abort", steps=(2,)),
                          FaultSpec("device_lost", steps=(4,))], seed=3)
        gpu = ResilientGPU(VirtualGPU(NVIDIA_TITAN_BLACK, faults=plan))
        res = gpu.execute_many(p["host"], p["inputs"], p["sizes"], steps,
                               rotations=ROT)
        assert plan.records, "no faults fired"
        assert gpu.recovered_faults() >= 1
        np.testing.assert_array_equal(res.buffers["final:prev1_h"][:p["N"]],
                                      clean.buffers["final:prev1_h"][:p["N"]])

    def test_virtual_gpu_sim_matches_numpy_reference(self, problem):
        """End-to-end: the virtual-GPU backend (steady kernels + prepared
        launches everywhere) still tracks the hand-written NumPy
        baseline."""
        def run(backend):
            sim = RoomSimulation(SimConfig(
                room=Room(Grid3D(14, 12, 10), DomeRoom()), scheme="fi_mm",
                backend=backend, precision="double",
                materials=default_fi_materials(4)))
            sim.add_impulse("center")
            sim.run(6)
            return sim
        ref = run("numpy")
        gpu = run("virtual_gpu")
        np.testing.assert_allclose(gpu.curr, ref.curr, atol=1e-13)
