"""The stepping path a simulation picks, and what it reports.

``RoomSimulation`` picks its path once — the constructor for the host
backends, ``_make_gpu`` for ``virtual_gpu`` (also after ``set_devices``
and after a shard-loss re-shard) — and names it on every ``sim.step``
span as ``path``, with the step's realisation as ``tier`` where the path
has one.  Every path holds two time levels.
"""

import numpy as np
import pytest

from repro import obs
from repro.acoustics import DomeRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.acoustics.lift_programs import LEAPFROG
from repro.gpu import ClInvalidValue, FaultPlan, FaultSpec
from repro.lift.codegen import loops
from repro.lift.codegen.loops import (LoopsUnsupported, available_tiers,
                                      select_tier)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    obs.disable()


def _sim(backend="virtual_gpu", dims=(14, 12, 10), scheme="fi_mm", **kw):
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), DomeRoom()),
                                   scheme=scheme, backend=backend, **kw))
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    return sim


def _step_spans(tracer):
    return tracer.find("sim.step", cat="sim")


def _spans(sim, steps=2):
    """Every step span ``sim.run(steps)`` opens."""
    with obs.observe() as o:
        sim.run(steps)
    return _step_spans(o.tracer)


def _launched(tracer):
    """(tier, cc_rung) of every ``kernel`` event ``execute()`` ran."""
    return {(k.attrs["tier"], k.attrs["cc_rung"])
            for k in tracer.find(cat="kernel")}


def _compiled_tier():
    """The tier a launch runs on here: the best compiled one, or the
    NumPy kernel without one."""
    try:
        tier = select_tier()
    except LoopsUnsupported:
        return "numpy", None
    return tier, loops._cc_built()[0] if tier == "cc" else None


#: the path of a ``parallel=True`` pool: its shards step on threads
#: where the step is on the cc tier, and the pool steps it whole else
PARALLEL = "parallel" if _compiled_tier()[0] == "cc" else "pool-loop"


def _paths(sim, steps=2):
    """``path`` of every step span ``sim.run(steps)`` opens."""
    return [s.attrs["path"] for s in _spans(sim, steps)]


def _refused_host(monkeypatch):
    """A ``fi_mm`` host program whose sweep names its oldest level other
    than ``prev``: the two-level step refuses it."""
    from repro.acoustics import lift_programs
    from repro.lift.codegen.host import compile_host

    def volume_kernel(dtype="double"):
        p = original(dtype)
        p.kernel.params[0].name = "older"
        return p

    original = lift_programs.volume_kernel
    monkeypatch.setattr(lift_programs, "volume_kernel", volume_kernel)
    hp = lift_programs.two_kernel_host("fi_mm")
    host = compile_host(hp.program, hp.name)
    monkeypatch.undo()
    return host


@pytest.mark.parametrize("kw, path", [
    (dict(), "resident"),
    (dict(parallel=True), "resident"),
    (dict(faults=FaultPlan([], seed=1)), "resident"),
    (dict(resilient=True), "resident"),
    (dict(devices="TitanBlack:2"), "pool-loop"),
    (dict(devices="TitanBlack:2", resilient=True, parallel=True), PARALLEL),
    (dict(devices="TitanBlack:2", parallel=True), PARALLEL),
], ids=["single", "single-parallel", "faults", "resilient", "pool",
        "pool-resilient-parallel", "parallel"])
def test_virtual_gpu_paths(kw, path):
    """Every path steps per step, on an open plan; a pool with faults
    or ``resilient`` runs the same shard threads as a clean one."""
    sim = _sim(**kw)
    with obs.observe() as o:
        sim.run(3)
    spans = _step_spans(o.tracer)
    assert [s.attrs["path"] for s in spans] == [path] * 3
    assert sim._plan is not None
    # every path names the tier its step kernel runs on, as the pool's
    # overlap report does for each shard
    assert {s.attrs.get("tier") for s in spans} == {sim._step.tier}
    if "devices" in kw:
        assert {p["tier"] for p in sim.last_overlap["per_shard"]} == {
            sim._step.tier}
    else:
        assert sim.last_overlap is None
    # only a parallel pool that cannot thread its step falls back
    assert {s.attrs.get("fallback") for s in spans} == {
        "step_tier" if kw.get("parallel") and path == "pool-loop"
        else None}
    assert not hasattr(sim, "nxt")


@pytest.mark.skipif(PARALLEL != "parallel",
                    reason="shard threads step the cc tier only")
def test_fallbacks_are_counted():
    """Each fallback path selection counts once, by path and reason; the
    clean ``resident`` and ``parallel`` paths count none, nor do pools
    with faults or ``resilient``, which thread their step alike."""
    with obs.observe() as o:
        for kw in (dict(), dict(devices="TitanBlack:2", parallel=True),
                   dict(devices="TitanBlack:2", parallel=True,
                        faults=FaultPlan([], seed=1)),
                   dict(devices="TitanBlack:2", parallel=True,
                        resilient=True)):
            _sim(**kw).run(2)
        assert o.metrics.get("repro_sim_path_fallbacks_total") is None
        # shard 0's device is lost at step 1: one device survives
        sim = _sim(devices="TitanBlack:2", parallel=True,
                   checkpoint_interval=2, faults=FaultPlan(
                       [FaultSpec("device_lost", steps=(1,), max_count=1)]))
        sim.run(4)
        fallbacks = o.metrics.get("repro_sim_path_fallbacks_total")
        spans = _step_spans(o.tracer)
    assert fallbacks.value(path="pool-loop", reason="single_shard") == 1
    assert fallbacks.total() == 1
    assert spans[-1].attrs["fallback"] == "single_shard"


@pytest.mark.parametrize("backend, path", [
    ("numpy", "numpy"), ("lift", "numpy-steady"), ("scalar", "scalar"),
    ("lift_interp", "lift_interp"),
    pytest.param("numba", "fused-step", marks=pytest.mark.skipif(
        available_tiers() == ("python",), reason="no compiled loop tier")),
])
def test_host_backend_paths(backend, path):
    sim = _sim(backend, dims=(6, 6, 6))
    spans = _spans(sim)
    assert [s.attrs["path"] for s in spans] == [path] * 2
    tier = {"numpy-steady": "numpy",
            "fused-step": sim._step and sim._step.tier}.get(path)
    assert [s.attrs.get("tier") for s in spans] == [tier] * 2
    assert not hasattr(sim, "nxt")


def _state(sim):
    return [sim.prev, sim.curr, sim.g1, sim.v, sim.receiver_signal("mic")]


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_state(a), _state(b)))


def _reselect_and_restore(scheme):
    """resident -> ``TitanBlack:2`` -> resident, then a checkpoint
    taken on each path restored on the other."""
    sim = _sim(scheme=scheme)
    seen, has_nxt = [], []
    for devices in (None, "TitanBlack:2", "TitanBlack"):
        if devices is not None:
            sim.set_devices(devices)
        seen.append(_paths(sim))
        has_nxt.append(hasattr(sim, "nxt"))
    assert seen == [["resident"] * 2, ["pool-loop"] * 2, ["resident"] * 2]
    assert has_nxt == [False, False, False]
    ref = _sim(scheme=scheme)
    ref.run(6)
    assert _same(sim, ref)

    for there in ("TitanBlack:2", "TitanBlack"):
        cp = sim.checkpoint()
        sim.run(3)
        ahead = _sim(scheme=scheme)
        ahead.restore(sim.checkpoint())
        sim.set_devices(there)
        sim.restore(cp)
        sim.run(3)
        assert _same(sim, ahead), (scheme, there)


def test_set_devices_reselects_the_path():
    """Resident and a pool both step two levels, so a path change adds
    no ``nxt``, and a checkpoint taken on one restores on the other, for
    a scheme without branch state and for one with it."""
    for scheme in ("fi_mm", "fd_mm"):
        _reselect_and_restore(scheme)


def test_fallback_when_no_compiled_tier(monkeypatch):
    """With no compiled tier the resident path still steps two levels,
    through the same step on whole arrays, says so, and computes what
    the compiled step computes, for every scheme and precision."""
    from repro.gpu import runtime

    cases = [(scheme, precision) for scheme in ("fi", "fi_mm", "fd_mm")
             for precision in ("single", "double")]
    fused = {case: _sim(scheme=case[0], precision=case[1])
             for case in cases}
    for sim in fused.values():
        assert sim._path == "resident"
        sim.run(4)

    def no_tier(requested=None):
        raise loops.LoopsUnsupported("no compiled tier (test)")

    monkeypatch.setattr(loops, "select_tier", no_tier)
    # what this test realises must not outlive it in the shared cache
    monkeypatch.setattr(runtime, "_NP_KERNEL_CACHE", {})
    for case in cases:
        sim = _sim(scheme=case[0], precision=case[1])
        spans = _spans(sim, 4)
        assert [(s.attrs["path"], s.attrs["tier"]) for s in spans] == (
            [("resident", "numpy")] * 4), case
        assert sim._step.tier == "numpy" and not hasattr(sim, "nxt")
        assert _same(sim, fused[case]), case


@pytest.mark.parametrize("path", ["one-shot", "pool-loop"])
def test_launches_with_no_compiled_tier_name_numpy(path, monkeypatch):
    """With no compiled tier every launch of a one-shot ``execute()``
    runs its NumPy kernel, and a pool's shards step on whole arrays, and
    the kernel and step spans say so."""
    from repro.gpu import runtime

    kw = dict(devices="TitanBlack:2") if path == "pool-loop" else {}
    ref = _sim(**kw)
    ref.run(1 if path == "one-shot" else 3)

    def no_tier(requested=None):
        raise loops.LoopsUnsupported("no compiled tier (test)")

    monkeypatch.setattr(loops, "select_tier", no_tier)
    monkeypatch.setattr(runtime, "_NP_KERNEL_CACHE", {})
    sim = _sim(**kw)
    with obs.observe() as o:
        if path == "one-shot":
            res = runtime.VirtualGPU(sim.devices[0]).execute(
                sim._host_program, *sim._vgpu_io())
        else:
            sim.run(3)
    if path == "one-shot":
        assert _launched(o.tracer) == {("numpy", None)}
        n = sim._N
        assert np.array_equal(np.asarray(res.result)[:n], ref.curr[:n])
        return
    spans = _step_spans(o.tracer)
    assert [(s.attrs["path"], s.attrs["tier"]) for s in spans] == (
        [(path, "numpy")] * len(spans))
    assert {s.attrs["tier"] for s in o.tracer.find("gpu.step")} == {"numpy"}
    assert _same(sim, ref)


def test_a_plan_the_step_refuses_is_refused_when_built(monkeypatch):
    """A host program whose sweep names its oldest level other than
    ``prev``: ``_step_links`` refuses the pair, so one device refuses it
    when the simulation is built, as a pool does — there is no
    launch-by-launch path to fall back to."""
    from repro.gpu.runtime import VirtualGPU
    from repro.lift.codegen.plan import Launch
    from repro.lift.codegen.loops import _step_links

    host = _refused_host(monkeypatch)
    for devices in (None, "TitanBlack:2"):
        with pytest.raises(LoopsUnsupported, match="older|'prev'"):
            _sim(host_program=host, devices=devices)
    launches = [op for op in host.plan.ops if isinstance(op, Launch)]
    with pytest.raises(LoopsUnsupported, match="older|'prev'"):
        _step_links([VirtualGPU._np_kernel(op).program for op in launches])


def test_compile_step_checks_the_plan_wiring():
    sim = _sim()
    plan = sim._host_program.plan
    with pytest.raises(LoopsUnsupported, match="do not overwrite"):
        sim._gpu.compile_step(plan, [("prev1_h", "prev2_h", "__out__")])
    # a cycle that does not end in the step's output is no leapfrog cycle
    with pytest.raises(ClInvalidValue, match="leapfrog"):
        sim._gpu.compile_step(plan, [("prev2_h", "prev1_h")])
    assert sim._gpu.compile_step(plan, [LEAPFROG]).links


def test_set_devices_refuses_a_host_backend():
    sim = _sim("numpy", dims=(6, 6, 6))
    with pytest.raises(ValueError, match="virtual_gpu"):
        sim.set_devices("TitanBlack:2")


def test_killed_shard_leaves_one_device_stepping_per_step():
    sim = _sim(devices="TitanBlack:2", parallel=True, checkpoint_interval=2,
               faults=FaultPlan([FaultSpec("device_lost", steps=(1,),
                                           max_count=1)]))
    paths = _paths(sim, 6)
    assert len(sim.devices) == 1
    # step 0, the lost step 1, then a replay from step 0 on the survivor
    assert paths == [PARALLEL] * 2 + ["pool-loop"] * 6
    assert sim.time_step == 6 and not hasattr(sim, "nxt")


def test_bulk_segments_keep_the_per_step_trailer():
    """Step, receiver-sample and health-check counters and the
    checkpoint-hook steps do not depend on whether the pool threads its
    step."""
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


FAULT_KINDS = ("alloc", "transfer_fail", "transfer_corrupt", "launch_abort",
               "device_lost")
_CLEAN: dict = {}


def _clean(backend, scheme, precision, devices=None):
    key = backend, scheme, precision, devices
    if key not in _CLEAN:
        sim = _sim(backend, scheme=scheme, precision=precision,
                   devices=devices, checkpoint_interval=2)
        sim.run(6)
        _CLEAN[key] = sim
    return _CLEAN[key]


@pytest.mark.parametrize("devices", [None, "TitanBlack:2",
                                     ("TitanBlack:2", True)],
                         ids=["one-device", "pool", "pool-parallel"])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_recovered_runs_are_bit_identical(kind, scheme, precision, devices):
    """A fault of each runtime kind, recovered, leaves the run equal to a
    clean ``numpy-steady`` run.  Allocation and upload sites fire where a
    plan opens (step 0), launch sites at step 3.  One device retries;
    a pool retries each shard's step, and re-shards and replays after a
    lost device, on shard threads or not.  Backoff stays out of kernel
    time, which a pool prices the same either way."""
    devices, parallel = (devices if isinstance(devices, tuple)
                         else (devices, False))
    at = (3,) if kind in ("launch_abort", "device_lost") else (0,)
    plan = FaultPlan([FaultSpec(kind, steps=at, max_count=1)], seed=1)
    sim = _sim(scheme=scheme, precision=precision, devices=devices,
               parallel=parallel, faults=plan, resilient=True,
               checkpoint_interval=2)
    sim.run(6)
    assert [r.kind for r in plan.records] == [kind]
    assert _same(sim, _clean("numpy-steady", scheme, precision))
    assert sim.policy_log[0].method == "step"
    actions = [o.action for o in sim.policy_log]
    if devices and kind == "device_lost":
        assert actions == ["raise", "reshard"] and len(sim.devices) == 1
    else:
        assert actions == ["retry", "recovered"]
        assert sim.modelled_gpu_time_ms == _clean(
            "virtual_gpu", scheme, precision, devices).modelled_gpu_time_ms
