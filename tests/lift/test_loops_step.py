"""One compiled step over two time levels.

``backend="numba"`` steps through ``loops.compile_step``: the scheme's
sweep and boundary programs in one parallel loop over Z-plane blocks,
each saving its boundary points' old ``prev`` values, sweeping the plane
in place (``out`` is ``prev``) and updating its boundary points from
the saved values.  ``numpy-steady`` runs the same schedule on whole
arrays (``tier="numpy"``).  These tests pin the compiled step against
it, bit for bit (``test_backend_matrix.py`` pins both against the
three-level reference kernels), and pin what makes it legal: every
other access of the overwritten array is refused, and so is every read
of the FD-MM branch velocity the step writes over, but the one each
point makes of its own element before overwriting it.
"""

import dataclasses
import subprocess
import threading
import tracemalloc

import numpy as np
import pytest

from repro.acoustics import RoomSimulation, SimConfig
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import (fd_mm_boundary, fi_mm_boundary,
                                          volume_kernel)
from repro.acoustics.materials import (default_fd_materials,
                                       default_fi_materials)
from repro.lift.arith import Var
from repro.lift.ast import BinOp, FunCall, Lambda, Param, lit
from repro.lift.codegen import loops
from repro.lift.codegen.arena import (ShiftOp, SliceStoreOp, TakeOp,
                                      Workspace)
from repro.lift.codegen.loops import (LoopsUnsupported, _step_links,
                                      available_tiers, compile_step)
from repro.lift.codegen.numpy_backend import compile_numpy
from repro.lift.patterns import ArrayAccess, Iota, Map
from repro.lift.types import ArrayType, Double, Int

from .conftest import vectorised_lines

TIERS = [pytest.param(t, marks=pytest.mark.skipif(
    t not in available_tiers(), reason=f"no {t} tier on this host"))
    for t in ("python", "cc", "numba")]
STEPS = 50


def _sim(scheme, precision, shape, backend, dims=(12, 10, 9)):
    mats = (default_fd_materials(3) if scheme == "fd_mm"
            else default_fi_materials(3))
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(*dims), shape()), scheme=scheme, backend=backend,
        precision=precision, materials=mats))
    sim.add_impulse("center")
    sim.add_receiver("mic", (3, 3, 3))
    sim.add_receiver("centre", "center")
    sim.run(STEPS // 2)
    sim.add_impulse((4, 5, 4), amplitude=-0.5)
    sim.run(STEPS - STEPS // 2)
    return sim


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_step_bit_equals_numpy_steady(scheme, precision, shape, tier,
                                      monkeypatch):
    monkeypatch.setenv("REPRO_LOOP_TIER", tier)
    ref = _sim(scheme, precision, shape, "numpy-steady")
    sim = _sim(scheme, precision, shape, "numba")
    assert sim._step.tier == tier
    n = ref._N
    for name in ("curr", "prev"):
        assert np.array_equal(getattr(sim, name)[:n],
                              getattr(ref, name)[:n]), name
        assert not getattr(sim, name)[n:].any(), f"{name}: guard plane"
    for name in ("g1", "v"):
        assert np.array_equal(getattr(sim, name), getattr(ref, name)), name
    for name in ("mic", "centre"):
        assert np.array_equal(sim.receiver_signal(name),
                              ref.receiver_signal(name)), name
    assert np.any(sim.receiver_signal("mic") != 0)


@pytest.mark.parametrize("tier", TIERS + ["numpy"])
def test_a_material_past_the_table_raises_before_the_step_stores(
        tier, monkeypatch):
    """A boundary point naming material 50 of 3 raises NumPy's
    ``IndexError`` from every step tier, and no level is written."""
    if tier != "numpy":
        monkeypatch.setenv("REPRO_LOOP_TIER", tier)
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(12, 10, 9), DomeRoom()), scheme="fd_mm",
        backend="numpy-steady" if tier == "numpy" else "numba",
        materials=default_fd_materials(3)))
    assert sim._step.tier == tier
    sim.add_impulse("center")
    sim.topology.material[5] = 50
    names = ("prev", "curr", "g1", "v")
    before = {n: getattr(sim, n).copy() for n in names}
    with pytest.raises(IndexError,
                       match="index 50 is out of bounds for axis 0 "
                             "with size 3"):
        sim.step()
    for n in names:
        assert np.array_equal(getattr(sim, n), before[n]), n


def _wide_sweep():
    """A sweep reaching two Z-planes back: its wraparound head is two
    ``NxNy`` blocks wide (the acoustics sweeps reach one plane, so their
    head is exactly the first block, whatever the room)."""
    NP = Var("NP")
    prev = Param("prev", ArrayType(Double, NP))
    curr = Param("curr", ArrayType(Double, NP))
    NxNy = Param("NxNy", Int)
    i = Param("i", Int)

    def at(arr, idx):
        return FunCall(ArrayAccess(), arr, idx)

    back = BinOp("-", i, BinOp("*", lit(2, Int), NxNy))
    body = BinOp("-", BinOp("+", at(curr, i), at(curr, back)), at(prev, i))
    kernel = Lambda([prev, curr, NxNy],
                    FunCall(Map(Lambda([i], body)), FunCall(Iota(Var("N")))))
    return compile_numpy(kernel, "wide_sweep")


@pytest.mark.parametrize("tier", TIERS + ["numpy"])
def test_a_head_wider_than_one_block(tier, monkeypatch):
    if tier != "numpy":
        monkeypatch.setenv("REPRO_LOOP_TIER", tier)
    nk = _wide_sweep()
    nxny, planes = 12, 5
    n, npad = nxny * planes, nxny * (planes + 1)
    assert nk.program.halo_footprint(dict(NxNy=nxny, N=n))[0] == 2 * nxny
    rng = np.random.default_rng(5)
    prev, curr = rng.standard_normal(npad), rng.standard_normal(npad)
    ref = np.zeros(npad)
    nk.fn(prev, curr, nxny, N=n, NP=npad, out=ref, _ws=Workspace("ref"))
    step = compile_step([nk.program],
                        tier="numpy" if tier == "numpy" else None)
    assert step.tier == tier
    step.fn(prev=prev, curr=curr, NxNy=nxny, N=n, NP=npad)
    assert np.array_equal(prev[:n], ref[:n])


@pytest.mark.parametrize("scheme", ["fi", "fd_mm"])
def test_two_time_levels(scheme):
    """No third level on ``numba`` or ``numpy-steady``, and a compiled
    step allocates less than one field (the boundary points' saved
    values, once)."""
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(50, 33, 25), BoxRoom()),
                                   scheme=scheme, backend="numba"))
    assert not hasattr(sim, "nxt")
    assert not hasattr(RoomSimulation(SimConfig(
        room=Room(Grid3D(8, 8, 8), BoxRoom()), scheme=scheme,
        backend="numpy-steady")), "nxt")
    sim.add_impulse("center")
    field = sim.curr.nbytes
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(3):
            sim.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    if sim._step.tier != "numba":             # the jit allocates in-process
        assert peak < field, (peak, field)
    assert not hasattr(sim, "nxt")


# -- what the step refuses ---------------------------------------------------


def _programs(precision="double"):
    return [compile_numpy(p.kernel, p.name).program for p in
            (volume_kernel(precision), fi_mm_boundary(precision))]


def _edit(program, match, **changes):
    """``program`` with the first op ``match`` accepts changed."""
    ops = list(program.ops)
    k = next(k for k, op in enumerate(ops) if match(op))
    ops[k] = dataclasses.replace(ops[k], **changes)
    return dataclasses.replace(program, ops=ops)


def test_a_boundary_gathering_prev_by_another_index_is_refused():
    volume, boundary = _programs()
    # fi_mm_boundary gathers ``prev[t_0]``, t_0 = boundaryIndices[_gid];
    # t_1 is the material index
    def prev_take(op):
        return isinstance(op, TakeOp) and op.base == "prev"
    compile_step([volume, boundary])
    for tier in (None, "numpy"):
        with pytest.raises(LoopsUnsupported,
                           match="reads 'prev' other than"):
            compile_step([volume, _edit(boundary, prev_take, index="t_1")],
                         tier=tier)
    with pytest.raises(LoopsUnsupported, match="reads 'next' other than"):
        compile_step([volume, _edit(
            boundary, lambda op: isinstance(op, TakeOp)
            and op.base == "next", index="t_1")])


def test_a_sweep_touching_prev_off_its_point_is_refused():
    volume, boundary = _programs()
    shifted = _edit(volume, lambda op: isinstance(op, ShiftOp)
                    and op.base == "prev", offset="(0 + (1))")
    with pytest.raises(LoopsUnsupported, match="cannot overwrite 'prev'"):
        compile_step([shifted, boundary])
    offset = _edit(volume, lambda op: isinstance(op, SliceStoreOp),
                   start="1")
    with pytest.raises(LoopsUnsupported, match="cannot overwrite 'prev'"):
        compile_step([offset, boundary])
    # a store that is not the sweep's last op: on whole arrays a later
    # op could read a view of ``prev`` already overwritten, so every
    # tier refuses it
    ops = list(volume.ops)
    early = dataclasses.replace(volume, ops=[ops[-1], *ops[:-1]])
    for tier in (None, "numpy"):
        with pytest.raises(LoopsUnsupported,
                           match="cannot overwrite 'prev'"):
            compile_step([early, boundary], tier=tier)


def _fd_programs(precision="double"):
    return [compile_numpy(p.kernel, p.name).program for p in
            (volume_kernel(precision), fd_mm_boundary(precision, 3))]


def _vel_read(op):
    return isinstance(op, ShiftOp) and op.base == "vel_prev"


def test_the_step_writes_the_branch_velocity_in_place():
    """``vel_next`` is bound to ``vel_prev``'s array, so the step takes
    one velocity argument; the step's own whole-array copy of the
    boundary program reads ``vel_prev`` by copy, and the program it was
    given — shared with the launches and the goldens — is untouched."""
    volume, boundary = _fd_programs()
    before = boundary.render()
    step = compile_step([volume, boundary], tier="numpy")
    assert step.aliases["vel_next"] == "vel_prev"
    assert "vel_next" not in step.param_names
    assert "vel_prev" in step.param_names
    assert boundary.render() == before
    assert not any(op.copy for op in boundary.ops if _vel_read(op))
    own = step.fn.programs[1]
    assert all(op.copy for op in own.ops if _vel_read(op))


def test_a_boundary_reading_vel_prev_off_its_store_is_refused():
    """Reading ``vel_prev`` at a neighbouring ordinal, after storing
    ``vel_next`` there, or reading ``vel_next`` at all, would read a
    velocity the step has already overwritten: refused, on every tier."""
    volume, boundary = _fd_programs()
    first = next(op for op in boundary.ops if _vel_read(op))
    neighbour = _edit(boundary, _vel_read, offset=f"({first.offset} + 1)")
    ops = list(boundary.ops)
    store = next(k for k, op in enumerate(ops)
                 if isinstance(op, SliceStoreOp) and op.target == "vel_next"
                 and op.start == first.offset)
    late = dataclasses.replace(boundary, ops=[
        *ops[:store + 1], dataclasses.replace(first, name="t_late"),
        *ops[store + 1:]])
    reads_next = _edit(boundary, _vel_read, base="vel_next")
    _step_links([volume, boundary])
    for mutated in (neighbour, late, reads_next):
        with pytest.raises(LoopsUnsupported,
                           match="cannot write 'vel_next' over 'vel_prev'"):
            _step_links([volume, mutated])
        with pytest.raises(LoopsUnsupported, match="'vel_next' over"):
            compile_step([volume, mutated], tier="numpy")


def test_boundary_points_must_ascend():
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(10, 9, 8), DomeRoom()),
                                   scheme="fi_mm", backend="numba"))
    sim.topology = dataclasses.replace(
        sim.topology, boundary_indices=sim.topology.boundary_indices[::-1])
    with pytest.raises(LoopsUnsupported, match="ascend"):
        sim.step()


# -- the C the step is --------------------------------------------------------


def test_step_source_does_not_depend_on_the_room(monkeypatch):
    """So an artifact cache primed on a small room serves the full one."""
    if "cc" not in available_tiers():
        pytest.skip("no working C compiler")
    monkeypatch.setenv("REPRO_LOOP_TIER", "cc")
    sources = set()
    for dims in ((12, 10, 9), (20, 14, 12)):
        sim = RoomSimulation(SimConfig(room=Room(Grid3D(*dims), BoxRoom()),
                                       scheme="fd_mm", backend="numba"))
        sim.step()
        sources.add(sim._step.source)
    assert len(sources) == 1


def _is_gcc(cc) -> bool:
    banner = subprocess.run([cc, "--version"], capture_output=True,
                            text=True).stdout
    return "Free Software Foundation" in banner


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_one_pragma_and_a_vectorised_sweep(scheme, precision, tmp_path,
                                           monkeypatch):
    cc = loops._cc_path()
    if cc is None or not _is_gcc(cc):
        pytest.skip("the vectorisation report read here is gcc's")
    monkeypatch.setenv("REPRO_LOOP_TIER", "cc")
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 9), DomeRoom()),
                                   scheme=scheme, precision=precision,
                                   backend="numba"))
    sim.step()
    step = sim._step
    assert step.cc_rung.startswith("vector")
    assert step.source.count("#pragma omp") == 1
    lines = step.source.splitlines()
    first = next(i for i, ln in enumerate(lines, 1)
                 if ln.startswith("        for (long long _i = (_hd0 > "))
    last = next(i for i, ln in enumerate(lines[first:], first + 1)
                if ln == "        }")
    assert step.cc_isa == loops._cc_built()[1]
    # at the flags the step is built with: one vector loop, the sweep's
    # main loop (a vector epilogue reports the same line)
    vectorised = set(vectorised_lines(
        cc, loops._cc_flags((step.cc_rung, step.cc_isa)), step.source,
        tmp_path))
    assert len(vectorised) == 1, vectorised
    assert first <= vectorised.pop() <= last


# -- Z-block ranges -----------------------------------------------------------


def _step_case(scheme, precision, shape):
    """A compiled step's arguments part-way through a run: a moving field
    and, for FD-MM, moving branch state."""
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(12, 10, 9), shape()), scheme=scheme,
        backend="numba", precision=precision,
        materials=(default_fd_materials(3) if scheme == "fd_mm"
                   else default_fi_materials(3))))
    sim.add_impulse("center")
    sim.run(4)
    return sim._step, sim._bound(sim.prev), sim.grid.nz


def _copied(args):
    return {n: (v.copy() if isinstance(v, np.ndarray) else v)
            for n, v in args.items()}


@pytest.mark.parametrize("tier", [t for t in TIERS
                                  if t.values[0] in ("python", "cc")])
@pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_a_step_in_block_ranges_is_the_full_step(scheme, precision, shape,
                                                  tier, monkeypatch):
    """``[0, a) + [a, b) + [b, nb)`` of the Z-plane blocks, each with its
    boundary points, is one full step bit for bit — the overlap
    schedule's interior-then-edges split."""
    monkeypatch.setenv("REPRO_LOOP_TIER", tier)
    step, args, nb = _step_case(scheme, precision, shape)
    assert step.tier == tier
    full = _copied(args)
    step.fn(**full)
    for cuts in ((1, nb - 1), (0, 4), (3, nb), (2, 2)):
        split = _copied(args)
        for blocks in ((0, cuts[0]), cuts, (cuts[1], nb)):
            step.fn(**split, _blocks=blocks)
        for name, value in full.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(split[name], value), (cuts, name)
    arrays = [n for n, v in args.items() if isinstance(v, np.ndarray)
              and not np.array_equal(v, full[n])]
    assert "prev" in arrays
    if scheme == "fd_mm":       # the new velocity lands in vel_prev's array
        assert {"g1", "vel_prev"} <= set(arrays), arrays
        assert "vel_next" not in arrays


@pytest.mark.parametrize("tier", TIERS + ["numpy"])
def test_a_block_range_outside_the_step_raises(tier, monkeypatch):
    if tier == "numpy":
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(12, 10, 9), DomeRoom()), scheme="fi_mm",
            backend="numpy-steady"))
        sim.add_impulse("center")
        step, args, nb = sim._step, sim._bound(sim.prev), sim.grid.nz
    else:
        monkeypatch.setenv("REPRO_LOOP_TIER", tier)
        step, args, nb = _step_case("fi_mm", "double", DomeRoom)
    before = _copied(args)
    for blocks in ((-1, 2), (0, nb + 1), (5, 4)):
        with pytest.raises(ValueError, match="Z-plane blocks"):
            step.fn(**args, _blocks=blocks)
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(args[name], value), name


def test_the_numpy_tier_takes_only_the_full_block_range():
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(12, 10, 9), DomeRoom()), scheme="fd_mm",
        backend="numpy-steady"))
    sim.add_impulse("center")
    step, args, nb = sim._step, sim._bound(sim.prev), sim.grid.nz
    assert step.tier == "numpy"
    before = _copied(args)
    for blocks in ((0, nb - 1), (1, nb), (0, 0)):
        with pytest.raises(LoopsUnsupported, match="full range"):
            step.fn(**args, _blocks=blocks)
    for name, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(args[name], value), name
    step.fn(**args, _blocks=(0, nb))
    full = _copied(before)
    step.fn(**full)
    assert np.array_equal(args["prev"], full["prev"])


# -- the block table, per index array and under threads ----------------------

requires_cc = pytest.mark.skipif("cc" not in available_tiers(),
                                 reason="no cc tier on this host")


def _counting(monkeypatch, name):
    """Count the calls of ``loops.<name>``."""
    calls, real = [], getattr(loops, name)
    monkeypatch.setattr(loops, name, lambda *a, **k: calls.append(1)
                        or real(*a, **k))
    return calls


def test_two_alternating_index_arrays_keep_their_blocks(monkeypatch):
    """Two rooms stepping one process-wide step (``virtual_gpu``'s)
    alternately build each index array's block table once."""
    sims = [RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 9), shape()),
                                     scheme="fi_mm", backend="virtual_gpu"))
            for shape in (BoxRoom, DomeRoom)]
    assert sims[0]._step is sims[1]._step
    calls = _counting(monkeypatch, "_step_blocks")
    for _ in range(3):
        for sim in sims:
            sim.step()
    assert len(calls) == (2 if sims[0]._step.tier != "numpy" else 0)


@requires_cc
@pytest.mark.parametrize("scheme", ["fi_mm", "fd_mm"])
def test_threads_making_the_first_call_together_build_once(scheme,
                                                           monkeypatch):
    """k threads stepping disjoint block ranges of one state, all making
    the step's first call at once, build one specialisation and one block
    table, and step the state as one thread does."""
    monkeypatch.setenv("REPRO_LOOP_TIER", "cc")
    sim = _one_step_sim(scheme)
    builds = _counting(monkeypatch, "_build_step")
    blocks = _counting(monkeypatch, "_step_blocks")
    args, nb, k = sim._bound(sim.prev), sim.grid.nz, 3
    start = threading.Barrier(k)
    errors = []

    def shard(b0, b1):
        start.wait()
        try:
            sim._step.fn(**args, _blocks=(b0, b1))
        except BaseException as err:
            errors.append(err)

    cuts = [i * nb // k for i in range(k + 1)]
    threads = [threading.Thread(target=shard, args=(a, b))
               for a, b in zip(cuts, cuts[1:])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert (len(builds), len(blocks)) == (1, 1)
    ref = _one_step_sim(scheme)
    ref._advance()
    for name in ("prev", "curr", "g1", "v"):
        assert np.array_equal(getattr(sim, name), getattr(ref, name)), name


def _one_step_sim(scheme):
    """A fresh ``numba``-backend simulation with an impulse in place."""
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(12, 10, 9), DomeRoom()), scheme=scheme,
        backend="numba",
        materials=(default_fd_materials(3) if scheme == "fd_mm"
                   else default_fi_materials(3))))
    sim.add_impulse("center")
    return sim


@requires_cc
@pytest.mark.parametrize("backend", ["numba", "virtual_gpu"])
def test_a_warm_single_device_step_takes_no_lock(backend, monkeypatch):
    monkeypatch.setenv("REPRO_LOOP_TIER", "cc")
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 9), DomeRoom()),
                                   scheme="fd_mm", backend=backend))
    sim.add_impulse("center")
    sim.step()

    class Refused:
        def __enter__(self):
            raise AssertionError("a warm step took the build lock")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(sim._step.fn, "lock", Refused())
    sim.run(2)
    assert sim.time_step == 3
