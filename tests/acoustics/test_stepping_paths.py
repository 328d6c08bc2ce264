"""The stepping path a simulation picks, and what it reports.

``RoomSimulation`` picks its path once — the constructor for the host
backends, ``_make_gpu`` for ``virtual_gpu`` (also after ``set_devices``
and after a shard-loss re-shard) — and names it on every ``sim.step`` /
``sim.segment`` span as ``path``.
"""

import numpy as np
import pytest

from repro import obs
from repro.acoustics import DomeRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.gpu import FaultPlan
from repro.lift.codegen.loops import available_tiers


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    obs.disable()


def _sim(backend="virtual_gpu", dims=(14, 12, 10), **kw):
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), DomeRoom()),
                                   scheme="fi_mm", backend=backend, **kw))
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    return sim


def _paths(sim, steps=2):
    """``path`` of every step/segment span ``sim.run(steps)`` opens."""
    with obs.observe() as o:
        sim.run(steps)
    return [s.attrs["path"] for s in o.tracer.find("sim.", cat="sim")
            if s.name in ("sim.step", "sim.segment")]


@pytest.mark.parametrize("kw, path", [
    (dict(), "resident"),
    (dict(parallel=True), "resident"),
    (dict(faults=FaultPlan([], seed=1)), "one-shot"),
    (dict(resilient=True), "one-shot"),
    (dict(devices="TitanBlack:2"), "pool-step"),
    (dict(devices="TitanBlack:2", resilient=True, parallel=True),
     "pool-step"),
    (dict(devices="TitanBlack:2", parallel=True), "parallel"),
], ids=["single", "single-parallel", "faults", "resilient", "pool",
        "pool-resilient-parallel", "parallel"])
def test_virtual_gpu_paths(kw, path):
    sim = _sim(**kw)
    assert _paths(sim, 3) == [path] * (1 if path == "parallel" else 3)
    assert (sim._plan is not None) == (path == "resident")


@pytest.mark.parametrize("backend, path", [
    ("numpy", "numpy"), ("lift", "numpy-steady"), ("scalar", "scalar"),
    ("lift_interp", "lift_interp"),
    pytest.param("numba", "fused-step", marks=pytest.mark.skipif(
        available_tiers() == ("python",), reason="no compiled loop tier")),
])
def test_host_backend_paths(backend, path):
    sim = _sim(backend, dims=(6, 6, 6))
    assert _paths(sim) == [path] * 2
    assert hasattr(sim, "nxt") == (path != "fused-step")


def test_set_devices_reselects_the_path():
    sim = _sim()
    seen = [_paths(sim)]
    sim.set_devices("TitanBlack:2")
    seen.append(_paths(sim))
    sim.set_devices("TitanBlack")
    seen.append(_paths(sim))
    assert seen == [["resident"] * 2, ["pool-step"] * 2, ["resident"] * 2]
    ref = _sim()
    ref.run(6)
    assert np.array_equal(sim.curr, ref.curr)
    assert np.array_equal(sim.receiver_signal("mic"),
                          ref.receiver_signal("mic"))


def test_set_devices_refuses_a_host_backend():
    sim = _sim("numpy", dims=(6, 6, 6))
    with pytest.raises(ValueError, match="virtual_gpu"):
        sim.set_devices("TitanBlack:2")


def test_killed_shard_leaves_one_device_stepping_per_step():
    sim = _sim(devices="TitanBlack:2", parallel=True, checkpoint_interval=2)
    sim._gpu._test_kill = {1: 1}       # worker 1 dies in the first segment
    paths = _paths(sim, 6)
    assert len(sim.devices) == 1
    # the lost segment, then a replay from step 0 on the survivor
    assert paths == ["parallel"] + ["pool-step"] * 6
    assert sim.time_step == 6


def test_bulk_segments_keep_the_per_step_trailer():
    """Step, receiver-sample and health-check counters and the
    checkpoint-hook steps do not depend on how the pool steps."""
    def run(parallel):
        hooked = []
        sim = _sim(devices="TitanBlack:2", parallel=parallel,
                   checkpoint_interval=3, health_interval=2,
                   on_checkpoint=lambda cp: hooked.append(cp.time_step))
        with obs.observe() as o:
            sim.run(8)
        counts = [o.metrics.get(name).total() for name in (
            "repro_sim_steps_total", "repro_sim_receiver_samples_total",
            "repro_sim_health_checks_total")]
        return counts, hooked, sim.curr

    (counts, hooked, curr), (p_counts, p_hooked, p_curr) = map(
        run, (False, True))
    assert counts == p_counts == [8, 8, 4]
    assert hooked == p_hooked == [3, 6]
    assert np.array_equal(curr, p_curr)
