"""The loop emitter types a program before it runs.

``repro.lift.codegen.loops._slot_dtypes`` derives every slot dtype by a
forward pass over the ``ArenaProgram`` (NumPy's own operations on
one-element stand-ins), so a compiled kernel is the compiled kernel from
its first call: no NumPy-steady reference run, no full-room arena, and a
ranged launch may come first.  What used to be a runtime probe is the
first test here; the others pin what its removal bought and the one
fallback rule (explicit ``numba`` requests raise ``LoopsUnsupported``,
the ``virtual_gpu`` auto mode falls back per kernel).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_3d,
                                           fi_fused_flat, fi_mm_boundary,
                                           two_kernel_host, volume_kernel)
from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology
from repro.gpu import NVIDIA_TITAN_BLACK, VirtualGPU
from repro.gpu import runtime
from repro.lift.codegen import loops
from repro.lift.codegen.arena import ArenaProgram, Workspace
from repro.lift.codegen.host import compile_host
from repro.lift.codegen.loops import (LoopKernel, LoopsUnsupported,
                                      compile_loops)
from repro.lift.codegen.numpy_backend import NumpyKernel, compile_numpy

KERNELS = ("fi_fused_flat", "volume_kernel", "fi_mm_boundary",
           "fd_mm_boundary", "fi_fused_3d", "gpr_h_update")


def _case(name, precision, numpy_scalar=True):
    """(kernel Lambda, positional args, keyword args) on a tiny room;
    the Courant scalar is a NumPy scalar or a Python float (the
    specialisation key tells the two apart)."""
    g = Grid3D(12, 10, 9)
    topo = build_topology(Room(g, DomeRoom()), num_materials=3)
    rng = np.random.default_rng(7)
    dt = np.float32 if precision == "single" else np.float64
    N, guard, K = g.num_points, g.nx * g.ny, topo.num_boundary_points

    def scalar(v):
        return dt(v) if numpy_scalar else float(v)

    def state(n=N + guard):
        return rng.standard_normal(n).astype(dt)

    lam, prev, curr = scalar(g.courant), state(), state()
    nbrs_g = np.concatenate([topo.nbrs, np.zeros(guard, np.int32)])
    if name == "fi_fused_flat":
        return (fi_fused_flat(precision).kernel,
                [prev, curr, nbrs_g, lam, scalar(0.35), g.nx, g.nx * g.ny],
                dict(N=N, NP=N + guard, out=np.zeros(N + guard, dt)))
    if name == "volume_kernel":
        return (volume_kernel(precision).kernel,
                [prev, curr, nbrs_g, lam, g.nx, g.nx * g.ny],
                dict(N=N, NP=N + guard, out=np.zeros(N + guard, dt)))
    if name == "fi_mm_boundary":
        table = MaterialTable.from_fi(default_fi_materials(3), dtype=dt)
        return (fi_mm_boundary(precision).kernel,
                [topo.boundary_indices, topo.material, topo.nbrs, table.beta,
                 state(), prev, lam],
                dict(K=K, M=table.num_materials, N=N))
    if name == "fd_mm_boundary":
        table = MaterialTable.from_fd(default_fd_materials(3), 3, dtype=dt)
        MB = table.num_branches
        return (fd_mm_boundary(precision, MB).kernel,
                [topo.boundary_indices, topo.material, topo.nbrs, table.beta,
                 table.BI.reshape(-1), table.DI.reshape(-1),
                 table.F.reshape(-1), table.D.reshape(-1),
                 state(), prev, state(MB * K), state(MB * K), state(MB * K),
                 lam, K],
                dict(M=table.num_materials, N=N))
    if name == "fi_fused_3d":
        return (fi_fused_3d(precision).kernel,
                [prev[:N].reshape(g.shape), curr[:N].reshape(g.shape),
                 topo.nbrs.reshape(g.shape), lam, scalar(0.35)],
                dict(NX=g.nx, NY=g.ny, NZ=g.nz,
                     out=np.zeros((g.nz - 2, g.ny - 2, g.nx - 2), dt)))
    if name == "gpr_h_update":
        # the loop-lowerable half of repro.geowaves (gpr_e_update keeps a
        # VecExprOp and stays on the steady emitter)
        from repro.geowaves.lift_programs import h_update_program
        from repro.lift.types import Double, Float
        n, nx = g.nx * g.ny, g.nx
        mask = (rng.random(n) > 0.2).astype(np.int32)
        return (h_update_program(Float if precision == "single"
                                 else Double).kernel,
                [state(n + nx), state(n + nx), state(n + nx), mask,
                 scalar(0.5), nx],
                dict(N=n, NP=n + nx))
    raise KeyError(name)


def _bound(program, args, kw):
    names = (list(program.param_names) + list(program.size_params)
             + (["out"] if program.returns_out else []))
    return {**dict(zip(names, args)), **kw}


# -- (a) the runtime probe, as a test ----------------------------------


@pytest.mark.parametrize("numpy_scalar", [True, False],
                         ids=["np-scalar", "py-scalar"])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("name", KERNELS)
def test_slot_dtypes_are_what_numpy_produces(name, precision, numpy_scalar):
    """Every buffer the NumPy-steady kernel leaves in a fresh arena has
    the dtype the forward pass predicted for the same arguments."""
    from repro.lift.codegen.loops import _slot_dtypes
    kernel, args, kw = _case(name, precision, numpy_scalar)
    nk = compile_numpy(kernel, name)
    assert nk.program.loop_opaque_reasons() == []
    dt, _values = _slot_dtypes(nk.program, _bound(nk.program, args, kw))
    ws = Workspace("probe")
    nk.fn(*args, **kw, _ws=ws)
    produced = {slot: buf.dtype for slot, buf in ws._slots.items()}
    produced.update({slot.split("@")[0]: np.asarray(val).dtype
                     for slot, (_key, val) in ws._consts.items()})
    assert len(produced) > 5
    assert {slot: dt[slot] for slot in produced} == produced
    # and the table is complete: every value-producing op has an entry
    for op in nk.program.ops:
        slot = getattr(op, "name", None)
        if slot is not None and slot in nk.program.vec:
            assert slot in dt, op.render()


def test_slot_dtypes_cover_const_and_pad_slots():
    """The two slot kinds a loop kernel keeps in its workspace, on a
    program small enough to read: a padded 3-point stencil gathered
    through a step-invariant, non-affine index (``2 * i``)."""
    from repro.lift.arith import Var
    from repro.lift.ast import BinOp, FunCall, Lambda, Param, lit
    from repro.lift.codegen.loops import _slot_dtypes
    from repro.lift.patterns import ArrayAccess, Iota, Map, Pad
    from repro.lift.types import ArrayType, Float, Int
    A = Param("A", ArrayType(Float, Var("N")))
    i = Param("i", Int)
    padded = FunCall(Pad(1, 1, 0.0), A)
    body = BinOp("*", FunCall(ArrayAccess(), padded,
                              BinOp("*", i, lit(2, Int))), 0.5)
    prog = Lambda([A], FunCall(Map(Lambda([i], body)),
                               FunCall(Iota(Var("K")))))
    nk = compile_numpy(prog, "padded_stride")
    kinds = {type(op).__name__ for op in nk.program.ops}
    assert {"ConstOp", "PadOp"} <= kinds, nk.source
    a = np.arange(1, 9, dtype=np.float32)
    ws, ref = Workspace("probe"), np.zeros(4, np.float32)
    nk.fn(a, K=4, N=8, out=ref, _ws=ws)
    dt, _ = _slot_dtypes(nk.program, dict(A=a, K=4, N=8, out=ref))
    for slot, buf in ws._slots.items():
        assert dt[slot] == buf.dtype, slot
    for slot, (_key, val) in ws._consts.items():
        assert dt[slot.split("@")[0]] == np.asarray(val).dtype, slot
    # the loop kernel materialises both slots itself, first call included
    for tier in ("python", *(t for t in loops.available_tiers()
                             if t != "python")):
        out = np.full(4, -1, np.float32)
        compile_loops(nk.program, tier=tier).fn(a, K=4, N=8, out=out)
        assert np.array_equal(out, ref), tier


# -- (b) a ranged launch may be the first call --------------------------


@pytest.mark.parametrize("precision", ["single", "double"])
def test_first_call_may_be_ranged(precision):
    kernel, args, kw = _case("volume_kernel", precision)
    nk = compile_numpy(kernel, "volume_kernel")
    ref = np.zeros_like(kw["out"])
    nk.fn(*args, **{**kw, "out": ref}, _ws=Workspace("ref"))
    lk = compile_loops(nk.program, tier="python")
    lo, hi = 137, 611
    out = np.full_like(ref, 123.0)
    ret = lk.fn(*args, **{**kw, "out": out}, _range=(lo, hi))
    assert ret is out and lk.source
    assert np.array_equal(out[lo:hi], ref[lo:hi])
    assert np.all(out[:lo] == 123.0) and np.all(out[hi:] == 123.0)
    # the rest of the range, from the same specialisation
    lk.fn(*args, **{**kw, "out": out}, _range=(0, lo))
    lk.fn(*args, **{**kw, "out": out}, _range=(hi, kw["N"]))
    assert np.array_equal(out[:kw["N"]], ref[:kw["N"]])


# -- (c) no full-room arena, no full-room transient ---------------------


def test_compiled_simulation_keeps_no_arena():
    """Step 0 of a ``backend="numba"`` run is the compiled loop: neither
    the arena nor the first step's transient allocations reach the size
    of one field (the reference run this replaces kept ~28 of them)."""
    dims = (50, 33, 25)                       # the paper's room / 6
    gc.collect()
    before = runtime.kernel_cache_stats()["arena"]["nbytes"]
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), BoxRoom()),
                                   scheme="fd_mm", backend="numba"))
    sim.add_impulse("center")
    field = sim.curr.nbytes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sim.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sim.run(2)
    assert isinstance(sim._k_volume, LoopKernel) and sim._k_volume.source
    grown = runtime.kernel_cache_stats()["arena"]["nbytes"] - before
    assert grown < field, (grown, field)
    if sim._k_volume.tier != "numba":         # the jit allocates in-process
        assert peak < field, (peak, field)
    ref = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), BoxRoom()),
                                   scheme="fd_mm", backend="numpy-steady"))
    ref.add_impulse("center")
    ref.run(3)
    assert np.array_equal(sim.curr, ref.curr)


# -- (d) one fallback rule ----------------------------------------------


def _vgpu_problem():
    g = Grid3D(10, 9, 8)
    topo = build_topology(Room(g, DomeRoom()), num_materials=4)
    table = MaterialTable.from_fi(default_fi_materials(4))
    rng = np.random.default_rng(3)
    N, guard = g.num_points, g.nx * g.ny
    inputs = dict(boundaries=topo.boundary_indices,
                  materialIdx=topo.material,
                  neighbors=np.concatenate([topo.nbrs,
                                            np.zeros(guard, np.int32)]),
                  betaTable=table.beta,
                  prev1_h=rng.standard_normal(N + guard),
                  prev2_h=rng.standard_normal(N + guard),
                  lambda_h=g.courant, Nx_h=g.nx, NxNy_h=g.nx * g.ny)
    sizes = dict(N=N, NP=N + guard, K=topo.num_boundary_points,
                 M=table.num_materials)
    host = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
    return host, inputs, sizes


def _execute(kernel_backend, problem):
    gpu = VirtualGPU(NVIDIA_TITAN_BLACK, kernel_backend=kernel_backend)
    result = np.array(gpu.execute(*problem).result)
    return result, gpu


@pytest.fixture
def fresh_kernel_caches(monkeypatch):
    monkeypatch.delenv("REPRO_LOOP_TIER", raising=False)
    runtime.clear_kernel_caches()
    yield
    runtime.clear_kernel_caches()


def test_no_compiled_tier(monkeypatch, fresh_kernel_caches):
    """Explicit requests raise the typed error naming the missing tiers;
    auto runs the steady emitter and gets the right answer."""
    problem = _vgpu_problem()
    expected, _ = _execute("numpy-steady", problem)
    monkeypatch.setattr(loops, "_cc_state", {"path": None})
    monkeypatch.setattr(loops, "_numba_available", lambda: False)

    with pytest.raises(LoopsUnsupported, match="numba.*C compiler"):
        RoomSimulation(SimConfig(room=Room(Grid3D(10, 9, 8), BoxRoom()),
                                 backend="numba"))
    with pytest.raises(LoopsUnsupported, match="numba.*C compiler"):
        _execute("numba", problem)

    result, gpu = _execute(None, problem)
    assert np.array_equal(result, expected)
    assert all(type(gpu._exec_kernel(op)) is NumpyKernel
               for op in problem[0].plan.ops if hasattr(op, "kernel"))


def test_loop_opaque_program(monkeypatch, fresh_kernel_caches):
    """Same rule when it is the program the loop emitter declines: auto
    falls back per kernel, explicit propagates the reason — also when
    the auto fallback is already cached for that kernel."""
    problem = _vgpu_problem()
    expected, _ = _execute("numpy-steady", problem)
    monkeypatch.setattr(ArenaProgram, "loop_opaque_reasons",
                        lambda self: ["RawOp: demo"])
    result, gpu = _execute(None, problem)
    assert np.array_equal(result, expected)
    for _ in range(2):                        # second pass: cached
        with pytest.raises(LoopsUnsupported, match="RawOp: demo"):
            _execute("numba", problem)


def test_emitters_are_the_registrys_lift_names():
    """``EMITTERS`` is the one list of emitter names: each is a backend,
    ``realise`` takes those (or ``None``) and nothing else."""
    from repro.acoustics.sim import BACKENDS
    assert set(loops.EMITTERS) < set(BACKENDS)
    nk = compile_numpy(volume_kernel("double").kernel, "volume_kernel")
    assert loops.realise(nk, "numpy-steady") is nk
    with pytest.raises(ValueError, match="unknown emitter"):
        loops.realise(nk, "cuda")
