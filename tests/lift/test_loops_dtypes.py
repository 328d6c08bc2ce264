"""The loop emitter types a program before it runs.

``repro.lift.codegen.loops._slot_dtypes`` derives every slot dtype by a
forward pass over the ``ArenaProgram`` (NumPy's own operations on
one-element stand-ins), so a compiled kernel is the compiled kernel from
its first call: no NumPy-steady reference run and no full-room arena.
What used to be a runtime probe is the first test here; the others pin what its removal bought and the one
fallback rule (explicit ``numba`` requests raise ``LoopsUnsupported``,
the ``virtual_gpu`` auto mode falls back per launch).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_flat,
                                           fi_mm_boundary, volume_kernel)
from repro.acoustics.materials import (MaterialTable, default_fd_materials,
                                       default_fi_materials)
from repro.acoustics.topology import build_topology
from repro.gpu import NVIDIA_TITAN_BLACK, VirtualGPU
from repro.gpu import runtime
from repro.lift.codegen import loops
from repro.lift.codegen.arena import ArenaProgram, Workspace
from repro.lift.codegen.loops import (LoopsUnsupported, StepKernel,
                                      compile_launch)
from repro.lift.codegen.numpy_backend import NumpyKernel, compile_numpy

from ..listing5 import listing5_problem

KERNELS = ("fi_fused_flat", "volume_kernel", "fi_mm_boundary",
           "fd_mm_boundary", "gpr_h_update")


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


def _runtime_executable(kernel, name, monkeypatch):
    """What ``VirtualGPU.execute()`` runs for a launch of ``kernel``."""
    from types import SimpleNamespace
    from repro.lift.codegen.opencl import compile_kernel
    monkeypatch.setattr(runtime, "_NP_KERNEL_CACHE", {})
    return VirtualGPU._exec_kernel(
        SimpleNamespace(kernel=compile_kernel(kernel, name)))


def test_const_and_pad_program_is_declined_and_falls_back(monkeypatch):
    """A program with a ``const`` and a ``pad`` slot — a padded array
    gathered through a step-invariant, non-affine index (``2 * i``) —
    is not a flat sweep that keeps nothing between calls: the loop
    emitter names both ops and declines, and the runtime runs the
    NumPy-steady kernel in its place, whose result is the hand-computed
    one."""
    from repro.lift.arith import Var
    from repro.lift.ast import BinOp, FunCall, Lambda, Param, lit
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
    with pytest.raises(LoopsUnsupported) as err:
        compile_launch(nk.program, tier="python")
    assert "ConstOp" in str(err.value) and "PadOp" in str(err.value)
    ex = _runtime_executable(prog, "padded_stride", monkeypatch)
    assert type(ex) is NumpyKernel and ex.tier == "numpy"
    a = np.arange(1, 9, dtype=np.float32)
    out = np.full(4, -1, np.float32)
    ex.fn(a, K=4, N=8, out=out, _ws=Workspace("fallback"))
    # padded A is [0, 1, ..., 8, 0]; elements 0, 2, 4, 6, halved
    assert np.array_equal(out, np.float32([0, 1, 2, 3]))


# -- (b) no full-room arena, no full-room transient ---------------------


def test_compiled_simulation_keeps_no_arena():
    """Step 0 of a ``backend="numba"`` run is the compiled step: neither
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
    assert isinstance(sim._step, StepKernel) and sim._step.source
    assert [p.name for p in sim._step.programs] == ["volume_kernel",
                                                    "fd_mm_boundary"]
    grown = runtime.kernel_cache_stats()["arena"]["nbytes"] - before
    assert grown < field, (grown, field)
    if sim._step.tier != "numba":             # the jit allocates in-process
        assert peak < field, (peak, field)
    ref = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), BoxRoom()),
                                   scheme="fd_mm", backend="numpy-steady"))
    ref.add_impulse("center")
    ref.run(3)
    assert np.array_equal(sim.curr, ref.curr)


# -- (c) one fallback rule ----------------------------------------------


def _vgpu_problem():
    p = listing5_problem(dims=(10, 9, 8), seed=3)
    n = p["N"] + p["guard"]
    rng = np.random.default_rng(3)
    # the counts widened to int32, as this file's launches bind them: the
    # fallback rule must not depend on the width of a bound parameter.
    # Both levels random everywhere, exterior and guard plane included:
    # a tier that reads a value there without the neighbour-count mask
    # then differs from numpy-steady
    inputs = dict(p["inputs"],
                  neighbors=p["inputs"]["neighbors"].astype(np.int32),
                  prev1_h=rng.standard_normal(n),
                  prev2_h=rng.standard_normal(n))
    return p["host"], inputs, p["sizes"]


def _execute(problem):
    gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
    result = np.array(gpu.execute(*problem).result)
    return result, gpu


def _all_numpy_steady(gpu, problem):
    return all(type(gpu._exec_kernel(op)) is NumpyKernel
               for op in problem[0].plan.ops if hasattr(op, "kernel"))


@pytest.fixture
def fresh_kernel_caches(monkeypatch):
    monkeypatch.delenv("REPRO_LOOP_TIER", raising=False)
    runtime.clear_kernel_caches()
    yield
    runtime.clear_kernel_caches()


def test_no_compiled_tier(monkeypatch, fresh_kernel_caches):
    """The explicit request raises the typed error naming the missing
    tiers; auto runs the steady emitter and gets the right answer."""
    problem = _vgpu_problem()
    expected, _ = _execute(problem)
    runtime.clear_kernel_caches()
    monkeypatch.setattr(loops, "_cc_state", {"path": None})
    monkeypatch.setattr(loops, "_numba_available", lambda: False)

    with pytest.raises(LoopsUnsupported, match="numba.*C compiler"):
        RoomSimulation(SimConfig(room=Room(Grid3D(10, 9, 8), BoxRoom()),
                                 backend="numba"))

    result, gpu = _execute(problem)
    assert np.array_equal(result, expected)
    assert _all_numpy_steady(gpu, problem)


def test_loop_opaque_program(monkeypatch, fresh_kernel_caches):
    """Same rule when it is the program the loop emitter declines: auto
    falls back per kernel, the explicit request propagates the reason."""
    problem = _vgpu_problem()
    expected, _ = _execute(problem)
    runtime.clear_kernel_caches()
    monkeypatch.setattr(ArenaProgram, "loop_opaque_reasons",
                        lambda self: ["RawOp: demo"])
    result, gpu = _execute(problem)
    assert np.array_equal(result, expected)
    assert _all_numpy_steady(gpu, problem)
    with pytest.raises(LoopsUnsupported, match="RawOp: demo"):
        RoomSimulation(SimConfig(room=Room(Grid3D(10, 9, 8), BoxRoom()),
                                 backend="numba"))
