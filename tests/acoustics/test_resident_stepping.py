"""Device-resident stepping on the single-device ``virtual_gpu`` path.

The default path opens one :class:`~repro.gpu.runtime.ResidentPlan` with
the simulation's own arrays bound in place and then only launches
kernels; ``faults`` and ``resilient`` step the same plan (the latter
under its recovery ladder).  A ``numpy-steady`` twin of the same
configuration is the reference the resident path must match bit for
bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.acoustics import (BoxRoom, DomeRoom, Grid3D, Room, RoomSimulation,
                             SimConfig)
from repro.acoustics.lift_programs import LEAPFROG
from repro.gpu import (ClInvalidBufferSize, ClMemAllocationFailure, FaultPlan,
                       NVIDIA_TITAN_BLACK, VirtualGPU)
from repro.gpu.runtime import ResidentPlan


@pytest.fixture(autouse=True)
def _no_leaked_session():
    yield
    obs.disable()


def _sim(scheme="fd_mm", dims=(14, 12, 10), shape=None, **kw):
    return RoomSimulation(SimConfig(
        room=Room(Grid3D(*dims), shape or BoxRoom()), scheme=scheme,
        backend="virtual_gpu", **kw))


def _scenario(sim):
    """Everything that touches the state arrays from outside the
    kernels, interleaved with steps."""
    sim.add_impulse("center")
    sim.add_receiver("mic", "center")
    sim.add_receiver("off", (4, 4, 4))
    sim.run(4)
    sim.add_impulse((5, 5, 5), 0.5)          # writes into a bound buffer
    sim.run(2)
    cp = sim.checkpoint()
    sim.run(3)
    sim.restore(cp)                          # in place, plan stays open
    sim.run(3)
    if sim.config.backend == "virtual_gpu":
        sim.set_devices("AMD7970")           # plan dropped and re-bound
    sim.run(3)
    return sim


@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_resident_bit_identical_to_one_shot(scheme, precision, shape):
    """The resident path, plain and under the recovery ladder, against
    the ``numpy-steady`` twin (the name predates that reference)."""
    resident, resilient = (
        _scenario(_sim(scheme, shape=shape(), precision=precision,
                       health_interval=1, resilient=r))
        for r in (False, True))
    steady = _scenario(RoomSimulation(SimConfig(
        room=Room(Grid3D(14, 12, 10), shape()), scheme=scheme,
        backend="numpy-steady", precision=precision, health_interval=1)))
    assert resident._path == resilient._path == "resident"
    assert resident._plan is not None and resilient._plan is not None
    assert resident.time_step == resilient.time_step == steady.time_step == 12
    for sim in (resident, resilient):
        for name in ("curr", "prev", "g1", "v"):
            assert np.array_equal(getattr(sim, name),
                                  getattr(steady, name)), name
        for mic in ("mic", "off"):
            assert np.array_equal(sim.receiver_signal(mic),
                                  steady.receiver_signal(mic))
    assert resident.modelled_gpu_time_ms == resilient.modelled_gpu_time_ms
    assert resident.devices[0].name == resilient.devices[0].name


def test_uploads_once_then_launches_only():
    sim = _sim()
    sim.add_impulse("center")
    with obs.observe() as o:
        sim.run(6)
    plan = sim._host_program.plan
    h2d = [s.name for s in o.tracer.find(cat="h2d")]
    assert sorted(h2d) == sorted(plan.host_buffers())
    allocs = [s.name for s in o.tracer.find("alloc:")]
    assert sorted(allocs) == sorted(f"alloc:{d.name}" for d in plan.buffers)
    assert not o.tracer.find(cat="d2h") and not o.tracer.find("gpu.execute")
    gpu_steps = o.tracer.find("gpu.step")
    assert [s.attrs["step"] for s in gpu_steps] == list(range(6))
    sim_steps = o.tracer.find("sim.step")
    assert [s.parent_id for s in gpu_steps] == [s.span_id for s in sim_steps]
    kernels = o.tracer.find(cat="kernel")
    assert len(kernels) == 12                # two launches a step, no more
    assert [s.attrs["step"] for s in kernels] == [i // 2 for i in range(12)]


def test_wall_time_goes_on_the_fused_call():
    sim = _sim()
    sim.add_impulse("center")
    with obs.observe() as o:
        sim.run(3)
    h = o.metrics.get("repro_host_wallclock_seconds")
    # once per step, under the step's name, not once per launch
    assert h.total_count() == 3
    assert h.count(kernel=sim._step.name,
                   device=NVIDIA_TITAN_BLACK.name) == 3


def test_simulations_of_a_scheme_share_one_step(monkeypatch):
    """The compiled step is cached like the launch kernels: a second
    simulation, or a return to one device, compiles nothing."""
    from repro.gpu import runtime
    from repro.lift.codegen import loops

    monkeypatch.setattr(runtime, "_NP_KERNEL_CACHE", {})
    builds = []

    def counting_build(kernel, bounds):
        builds.append(kernel.name)
        return real_build(kernel, bounds)

    real_build = loops._build_step
    monkeypatch.setattr(loops, "_build_step", counting_build)
    first = _sim()
    first.add_impulse("center")
    first.run(2)
    second = _sim()
    second.add_impulse("center")
    second.run(2)
    first.set_devices("TitanBlack:2")
    first.set_devices("TitanBlack")
    first.run(1)
    assert first._path == second._path == "resident"
    assert first._step is second._step
    assert builds == [first._step.name]      # one specialisation, built once


@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_fused_steps_model_the_launches_of_execute_many(scheme):
    """The fused step records what ``execute_many`` records for the
    same launches: one modelled kernel event per launch, equal in name,
    duration, modelled start and step."""
    sim = _sim(scheme, shape=DomeRoom())
    sim.add_impulse("center")
    live, sizes = sim._vgpu_io()
    inputs = {n: a.copy() if isinstance(a, np.ndarray) else a
              for n, a in live.items()}

    def kernels(o):
        return [(s.name, s.duration_ms, s.start_ms, s.attrs["step"])
                for s in o.tracer.find(cat="kernel")]

    with obs.observe() as o:
        sim.run(6)
    fused = kernels(o)
    with obs.observe() as o:
        VirtualGPU(sim.devices[0]).execute_many(
            sim._host_program, inputs, sizes, 6, [LEAPFROG])
    assert sim._path == "resident"
    assert len(fused) == 6 * len(sim._step.programs)
    assert fused == kernels(o)


def test_plan_opened_before_the_session_still_traces():
    sim = _sim("fi_mm")
    sim.add_impulse("center")
    sim.run(2)                               # plan opens untraced
    with obs.observe() as o:
        sim.run(2)
    assert [s.attrs["step"] for s in o.tracer.find("gpu.step")] == [2, 3]
    assert not o.tracer.find(cat="h2d")      # nothing is uploaded again


@pytest.mark.parametrize("kw", [dict(faults=FaultPlan([], seed=1)),
                                dict(resilient=True),
                                dict(devices="TitanBlack:2")],
                         ids=["faults", "resilient", "pool"])
def test_faults_resilient_and_pools_step_resident_plans(kw):
    """No configuration but a plan the step refuses leaves the resident
    plans: one ``gpu.step`` per step (and shard), no ``execute()``."""
    sim = _sim("fi_mm", **kw)
    sim.add_impulse("center")
    with obs.observe() as o:
        sim.run(2)
    assert (sim._plan is None) == ("devices" in kw)
    assert not o.tracer.find("gpu.execute")
    assert len(o.tracer.find("gpu.step")) == 2 * len(sim.devices)


def test_state_arrays_are_the_resident_buffers():
    sim = _sim(dims=(8, 8, 8))
    sim.add_impulse("center")
    # Listing 5's two velocity buffers are both the one ``v``, which the
    # step updates in place
    roles = dict(curr="prev1_h", prev="prev2_h", g1="g1_h", v="v2_h")
    for step in range(500):
        sim.step()
        plan = sim._plan
        if step < 4:                         # two full rotation cycles
            for attr, name in roles.items():
                assert getattr(sim, attr) is plan.buffer_for(name), attr
            assert plan.buffer_for("v1_h") is sim.v
        assert np.shares_memory(sim.curr, plan.buffer_for("prev1_h"))
    assert len(plan.events) == 0
    # two host levels: the model's third is declared, with no host memory
    assert sim._path == "resident" and not hasattr(sim, "nxt")
    out = plan.buffers[next(op.out_buffer for op in plan.plan.ops
                            if getattr(op, "out_buffer", None))]
    assert out.size == sim.curr.size and out.strides == (0,)
    assert not out.flags.writeable
    # topology and coefficients are bound too: no second copy of the room
    assert plan.buffer_for("neighbors") is sim._nbrs_guarded
    assert plan.buffer_for("boundaries") is sim.topology.boundary_indices
    assert np.shares_memory(plan.buffer_for("BI_h"), sim.table.BI)


def test_steady_steps_allocate_nothing():
    sim = _sim(dims=(50, 34, 25))            # the scale-6 room
    sim.add_impulse("center")
    sim.add_receiver("mic", "center")
    sim.run(5)
    tracemalloc.start()
    try:
        sim.run(2)                           # tracemalloc's own warm-up
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        sim.run(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one field is 340 KB: a single temporary or copy would show
    assert peak - before < 64 * 1024


class TestBinding:
    @pytest.fixture()
    def parts(self):
        sim = _sim("fi_mm")
        sim.add_impulse("center")
        return (sim, *sim._vgpu_io())

    def _open(self, sim, inputs, sizes, events=None, **override):
        inputs = dict(inputs, **override)
        in_place = {n: a for n, a in inputs.items()
                    if isinstance(a, np.ndarray)}
        return ResidentPlan.stepping(VirtualGPU(NVIDIA_TITAN_BLACK),
                                     sim._host_program.plan, inputs, sizes,
                                     [LEAPFROG],
                                     [] if events is None else events,
                                     in_place)

    def test_wrong_dtype_is_typed_error(self, parts):
        sim, inputs, sizes = parts
        with pytest.raises(ClInvalidBufferSize, match="dtype float64"):
            self._open(sim, inputs, sizes,
                       prev1_h=sim.curr.astype(np.float32))

    def test_narrower_signed_int_backs_a_read_only_buffer(self, parts):
        sim, inputs, sizes = parts
        assert sim._nbrs_guarded.dtype == np.int8
        ref = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            sim._host_program, inputs, sizes)            # copy path: widens
        assert ref.buffers[sim._host_program.plan.host_buffers()[
            "neighbors"]].dtype == np.int32
        uploads = set()
        prev = sim.prev.copy()
        for width in (np.int8, np.int16, np.int32):
            sim.prev[:] = prev               # the level the step overwrites
            events = []
            plan = self._open(sim, inputs, sizes, events=events,
                              neighbors=sim._nbrs_guarded.astype(width))
            assert plan.buffer_for("neighbors").dtype == width
            uploads.add(next(e.duration_ms for e in events
                             if e.name == "neighbors"))
            plan.run_fused(0)
            assert np.array_equal(plan.buffer_for("prev2_h")[:sizes["N"]],
                                  np.asarray(ref.result)[:sizes["N"]])
        # the modelled upload is the declared buffer's, whatever backs it
        assert len(uploads) == 1

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, bool])
    def test_other_widths_and_kinds_are_refused(self, parts, dtype):
        sim, inputs, sizes = parts
        with pytest.raises(ClInvalidBufferSize, match="narrower signed"):
            self._open(sim, inputs, sizes,
                       neighbors=sim._nbrs_guarded.astype(dtype))

    def test_written_buffer_takes_the_declared_type_only(self):
        from repro.lift.codegen.host import BufferDecl
        from repro.lift.types import Int
        sim = _sim("fd_mm")
        plan = sim._host_program.plan
        names = plan.host_buffers()
        assert plan.written_buffers() == {
            names["g1_h"], names["v1_h"],
            next(op.out_buffer for op in plan.ops
                 if getattr(op, "out_buffer", None))}
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        decl, narrow = BufferDecl("counts", Int, None), np.zeros(8, np.int8)
        assert gpu._use_host_ptr(decl, narrow, 8, 0, written=False)
        with pytest.raises(ClInvalidBufferSize, match="dtype int32$"):
            gpu._use_host_ptr(decl, narrow, 8, 0, written=True)

    def test_rotation_peers_must_share_a_type(self, parts):
        sim, inputs, sizes = parts
        with pytest.raises(ClInvalidBufferSize, match="interchangeable"):
            ResidentPlan.stepping(VirtualGPU(NVIDIA_TITAN_BLACK),
                                  sim._host_program.plan, inputs, sizes,
                                  [LEAPFROG,
                                   ("neighbors", "materialIdx")],
                                  [], {"neighbors": sim._nbrs_guarded})

    def test_non_contiguous_is_typed_error(self, parts):
        sim, inputs, sizes = parts
        strided = np.zeros(2 * sizes["NP"])[::2]
        with pytest.raises(ClInvalidBufferSize, match="C-contiguous"):
            self._open(sim, inputs, sizes, prev1_h=strided)

    def test_wrong_size_is_typed_error(self, parts):
        sim, inputs, sizes = parts
        for size in (sizes["N"] - 1, sizes["NP"] + 1):
            with pytest.raises(ClInvalidBufferSize) as ei:
                self._open(sim, inputs, sizes, prev1_h=np.zeros(size))
            assert ei.value.context["host_elems"] == size
            assert ei.value.context["buffer_elems"] == sizes["NP"]

    def test_guard_plane_shortfall_falls_back_to_copy(self, parts):
        sim, inputs, sizes = parts
        short = sim.curr[:sizes["N"]].copy()     # no guard plane
        ref = VirtualGPU(NVIDIA_TITAN_BLACK).execute(
            sim._host_program, dict(inputs, prev1_h=short), sizes)
        plan = self._open(sim, inputs, sizes, prev1_h=short)
        dev = plan.buffer_for("prev1_h")
        assert dev.size == sizes["NP"] and not np.shares_memory(dev, short)
        assert np.array_equal(dev[:sizes["N"]], short)
        assert plan.buffer_for("prev2_h") is sim.prev    # the rest binds
        plan.run_fused(0)
        assert np.array_equal(plan.buffer_for("prev2_h")[:sizes["N"]],
                              np.asarray(ref.result)[:sizes["N"]])

    def test_unknown_name_is_typed_error(self, parts):
        from repro.gpu import ClInvalidValue
        sim, inputs, sizes = parts
        with pytest.raises(ClInvalidValue, match="not_a_param"):
            ResidentPlan(VirtualGPU(NVIDIA_TITAN_BLACK),
                         sim._host_program.plan, inputs, sizes, [], [],
                         {"not_a_param": np.zeros(3)})

    def test_bound_buffers_count_against_device_capacity(self):
        sim = _sim()
        sim.step()
        # the device holds the declared type (the host keeps `neighbors`
        # in one byte), and the output level is resident at its
        # cycle peers' size
        decls = {d.name: d for d in sim._host_program.plan.buffers}
        assert sim._plan.buffer_for("neighbors").itemsize == 1
        assert decls[sim._plan.binding["neighbors"]].scalar.nbytes == 4
        total = sum(b.size * decls[name].scalar.nbytes
                    for name, b in sim._plan.buffers.items())
        sim.set_devices(dataclasses.replace(NVIDIA_TITAN_BLACK,
                                            global_mem_bytes=total))
        sim.step()                           # exactly fits
        sim.set_devices(dataclasses.replace(NVIDIA_TITAN_BLACK,
                                            global_mem_bytes=total - 1))
        with pytest.raises(ClMemAllocationFailure) as ei:
            sim.step()
        assert ei.value.context["capacity_bytes"] == total - 1
        assert not ei.value.injected
