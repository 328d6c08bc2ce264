"""Seeded fault-injection campaigns against the virtual runtime.

The acceptance bar: an FI-MM simulation with >= 4 fault classes injected
must see every fault either *recovered* (retry/fallback, visible in the
policy log) or *surfaced* as the correct typed exception — never a
silent wrong answer — and with retries enabled the final pressure field
is bit-identical (f64) to a fault-free run.
"""

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.materials import default_fi_materials
from repro.gpu import (ClDeviceLost, ClMemAllocationFailure,
                       ClOutOfResources, ClTransferCorrupted, FaultPlan,
                       FaultSpec)


def make_sim(faults=None, resilient=False, steps_cfg=None):
    cfg = SimConfig(room=Room(Grid3D(14, 12, 10), DomeRoom()),
                    scheme="fi_mm", backend="virtual_gpu",
                    precision="double", materials=default_fi_materials(4),
                    faults=faults, resilient=resilient,
                    **(steps_cfg or {}))
    sim = RoomSimulation(cfg)
    sim.add_impulse("center")
    sim.add_receiver("mic", "center")
    return sim


# the rate-driven sites are consulted where a plan opens: at step 0, and
# where a lost device's plan re-opens; at step 3 a device loss and a
# launch abort spend the retry budget on CL_OUT_OF_RESOURCES, so the
# ladder also degrades the launch
CAMPAIGN_SPECS = [
    FaultSpec("alloc", rate=0.02),
    FaultSpec("transfer_fail", rate=0.02),
    FaultSpec("transfer_corrupt", rate=0.03),
    FaultSpec("launch_abort", steps=(2, 3, 5)),
    FaultSpec("device_lost", steps=(3,)),
]
STEPS = 10


class TestCampaign:
    def test_four_fault_classes_recovered_bit_identical(self):
        ref = make_sim()
        ref.run(STEPS)

        plan = FaultPlan(CAMPAIGN_SPECS, seed=11)
        sim = make_sim(faults=plan, resilient=True)
        sim.run(STEPS)

        # >= 4 distinct fault classes actually fired
        assert len(plan.injected_kinds()) >= 4, plan.records
        # every injected fault shows up in the policy log as a recovery
        # action, and nothing was surfaced to the caller
        log = sim.policy_log
        assert log, "faults were injected but no policy decisions logged"
        assert all(o.action != "raise" for o in log)
        # each injection aborts exactly one attempt, so every fault record
        # has a matching recovery decision in the log
        failures = [o for o in log if o.action in
                    ("retry", "degrade_launch", "fallback_device",
                     "host_fallback")]
        assert len(failures) == len(plan.records)
        # every stage the ladder has without fallback devices, each over
        # one step
        assert {o.action for o in log} == {
            "retry", "degrade_launch", "host_fallback", "recovered"}
        assert {o.method for o in log} == {"step"}
        # never a silent wrong answer: bit-identical to the fault-free run
        np.testing.assert_array_equal(sim.curr, ref.curr)
        np.testing.assert_array_equal(sim.receiver_signal("mic"),
                                      ref.receiver_signal("mic"))

    def test_campaign_is_deterministic(self):
        records = []
        for _ in range(2):
            plan = FaultPlan(CAMPAIGN_SPECS, seed=11)
            sim = make_sim(faults=plan, resilient=True)
            sim.run(STEPS)
            records.append([(r.kind, r.site, r.step) for r in plan.records])
        assert records[0] == records[1]

    def test_retry_overhead_is_visible_not_in_kernel_time(self):
        plan = FaultPlan([FaultSpec("launch_abort", steps=(1,))], seed=3)
        sim = make_sim(faults=plan, resilient=True)
        ref = make_sim()
        sim.run(3)
        ref.run(3)
        # backoff was modelled into the events, not into kernel time
        assert any(o.backoff_ms > 0 for o in sim.policy_log)
        assert sim.modelled_gpu_time_ms == ref.modelled_gpu_time_ms


class TestTypedSurfacing:
    """Without recovery, each fault class surfaces as its OpenCL type."""

    def run_with(self, spec, seed=0):
        plan = FaultPlan([spec], seed=seed)
        sim = make_sim(faults=plan, resilient=False)
        sim.run(STEPS)

    def test_alloc_failure(self):
        with pytest.raises(ClMemAllocationFailure) as ei:
            self.run_with(FaultSpec("alloc", rate=0.2))
        assert ei.value.injected

    def test_transfer_failure(self):
        with pytest.raises(ClOutOfResources):
            self.run_with(FaultSpec("transfer_fail", rate=0.2))

    def test_transfer_corruption_detected_and_rolled_back(self):
        with pytest.raises(ClTransferCorrupted):
            self.run_with(FaultSpec("transfer_corrupt", rate=0.2))

    def test_launch_abort(self):
        with pytest.raises(ClOutOfResources) as ei:
            self.run_with(FaultSpec("launch_abort", steps=(4,)))
        assert ei.value.context["step"] == 4

    def test_device_lost(self):
        with pytest.raises(ClDeviceLost):
            self.run_with(FaultSpec("device_lost", steps=(2,)))

    def test_persistent_fault_defeats_retries_but_stays_typed(self):
        # persistent loss on the primary: retries burn out, but the host
        # fallback still completes the run correctly
        plan = FaultPlan([FaultSpec("device_lost", steps=(2,),
                                    persistent=True)], seed=1)
        sim = make_sim(faults=plan, resilient=True)
        ref = make_sim()
        sim.run(STEPS)
        ref.run(STEPS)
        assert any(o.action == "host_fallback" for o in sim.policy_log)
        np.testing.assert_array_equal(sim.curr, ref.curr)


class TestOptIn:
    """Fault injection is strictly opt-in: defaults are unchanged."""

    def test_default_gpu_has_no_fault_plan(self):
        sim = make_sim()
        assert sim._gpu.faults is None

    def test_modelled_times_unchanged_by_resilient_wrapper(self):
        plain = make_sim()
        wrapped = make_sim(resilient=True)
        plain.run(4)
        wrapped.run(4)
        assert wrapped.modelled_gpu_time_ms == plain.modelled_gpu_time_ms
        np.testing.assert_array_equal(wrapped.curr, plain.curr)
        assert wrapped.policy_log == []
