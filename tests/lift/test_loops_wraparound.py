"""The loop emitter peels the wraparound head off every sweep.

A shifted load ``base[_i + off]`` needs fancy indexing's wrap test only
for ``_i < -off``, so ``repro.lift.codegen.loops`` emits each kernel as
a serial head ``[_lo, _hd)`` that keeps the test and a main sweep
``[_hd, _n)`` whose shifted loads are plain — the split
``Workspace.shift`` makes with two slice copies.  These tests pin the
split against the NumPy-steady kernel at every ``_range`` that cuts it,
on every tier this host has (the ``numba-backend`` CI job adds the jit
tier).
"""

import re

import numpy as np
import pytest

from repro.acoustics.geometry import DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.lift_programs import fd_mm_boundary, volume_kernel
from repro.acoustics.materials import MaterialTable, default_fd_materials
from repro.acoustics.topology import build_topology
from repro.lift.codegen.arena import IndexStoreOp, TakeOp, Workspace
from repro.lift.codegen.loops import available_tiers, compile_loops
from repro.lift.codegen.numpy_backend import compile_numpy

TIERS = [pytest.param(t, marks=pytest.mark.skipif(
    t not in available_tiers(), reason=f"no {t} tier on this host"))
    for t in ("python", "cc", "numba")]
SENTINEL = 123.0
MB = 3                              # fd_mm branches


def _dtype(precision):
    return np.float32 if precision == "single" else np.float64


def _volume_case(precision, n, nx, nxny):
    """Random fields on a padded flat room: ``n`` points, a guard plane
    of ``nxny`` non-zero values behind them (what offset ``-nxny`` reads
    for the first plane)."""
    rng = np.random.default_rng(n)
    dt = _dtype(precision)
    npad = n + nxny
    args = [rng.standard_normal(npad).astype(dt),
            rng.standard_normal(npad).astype(dt),
            rng.integers(0, 7, npad).astype(np.int32), dt(0.57), nx, nxny]
    return args, dict(N=n, NP=npad)


def _volume_kernels(precision, tier):
    nk = compile_numpy(volume_kernel(precision).kernel, "volume_kernel")
    return nk, compile_loops(nk.program, tier=tier)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("precision", ["single", "double"])
def test_every_cut_of_the_sweep_matches_numpy_steady(precision, tier):
    n, hd = 120, 20
    args, kw = _volume_case(precision, n, nx=5, nxny=hd)
    nk, lk = _volume_kernels(precision, tier)
    ref = np.zeros(n + hd, _dtype(precision))
    nk.fn(*args, **kw, out=ref, _ws=Workspace("ref"))
    assert np.any(ref[:hd] != 0) and np.any(ref[hd:n] != 0)
    for lo, hi in [(0, 0), (0, 1), (0, hd), (hd - 1, hd + 1), (hd, n),
                   (1, n - 1), (n, n), (0, n)]:
        out = np.full_like(ref, SENTINEL)
        lk.fn(*args, **kw, out=out, _range=(lo, hi))
        assert np.array_equal(out[lo:hi], ref[lo:hi]), (lo, hi)
        assert np.all(out[:lo] == SENTINEL), (lo, hi)
        assert np.all(out[hi:] == SENTINEL), (lo, hi)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("precision", ["single", "double"])
def test_a_sweep_shorter_than_the_plane_is_all_head(precision, tier):
    n, nxny = 40, 56
    args, kw = _volume_case(precision, n, nx=7, nxny=nxny)
    nk, lk = _volume_kernels(precision, tier)
    ref = np.zeros(n + nxny, _dtype(precision))
    nk.fn(*args, **kw, out=ref, _ws=Workspace("ref"))
    for rng in (None, (3, n - 3)):
        lo, hi = rng or (0, n)
        out = np.full_like(ref, SENTINEL)
        lk.fn(*args, **kw, out=out, _range=rng)
        assert np.array_equal(out[lo:hi], ref[lo:hi])
        assert np.all(out[:lo] == SENTINEL) and np.all(out[hi:] == SENTINEL)


@pytest.mark.parametrize("tier", TIERS)
def test_out_of_range_shift_raises_before_any_store(tier):
    args, kw = _volume_case("double", 120, nx=5, nxny=20)
    args[1] = args[1][:-1]          # curr one short of offset + n
    _nk, lk = _volume_kernels("double", tier)
    out = np.full(140, SENTINEL)
    for rng in (None, (30, 60)):
        with pytest.raises(IndexError, match="shifted gather out of range"):
            lk.fn(*args, **kw, out=out, _range=rng)
    assert np.all(out == SENTINEL)


def _fd_mm_case(precision):
    g = Grid3D(12, 10, 9)
    topo = build_topology(Room(g, DomeRoom()), num_materials=3)
    rng = np.random.default_rng(11)
    dt = _dtype(precision)
    table = MaterialTable.from_fd(default_fd_materials(3), MB, dtype=dt)
    n, k = g.num_points, topo.num_boundary_points

    def state(size):
        return rng.standard_normal(size).astype(dt)

    bidx = topo.boundary_indices.copy()
    bidx[0] -= n                    # the same point, named from the end
    assert bidx[0] < 0
    args = [bidx, topo.material, topo.nbrs, table.beta,
            table.BI.reshape(-1), table.DI.reshape(-1), table.F.reshape(-1),
            table.D.reshape(-1), state(n), state(n), state(MB * k),
            state(MB * k), state(MB * k), dt(g.courant), k]
    return args, dict(M=table.num_materials, N=n)


def _fd_mm_kernels(precision, tier):
    nk = compile_numpy(fd_mm_boundary(precision, MB).kernel,
                       "fd_mm_boundary")
    return nk, compile_loops(nk.program, tier=tier)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("precision", ["single", "double"])
def test_data_dependent_indices_keep_their_wrap_test(precision, tier):
    """``take`` / indexed-store indices come from an array, not from the
    loop variable: a negative one must wrap in the main sweep too (this
    kernel's shifts are all non-negative, so the head is empty)."""
    args, kw = _fd_mm_case(precision)
    nk, lk = _fd_mm_kernels(precision, tier)
    got = [np.copy(a) for a in args]
    want = [np.copy(a) for a in args]
    nk.fn(*want, **kw, _ws=Workspace("ref"))
    lk.fn(*got, **kw)
    written = [i for i, (a, w) in enumerate(zip(args, want))
               if not np.array_equal(a, w)]
    assert len(written) == 3        # next, g1, vel_next
    for a, w in zip(got, want):
        assert np.array_equal(a, w)


def _bodies(source):
    """(head body, main body) of a python-tier loop source, dedented."""
    lines = source.splitlines()
    head_at = lines.index("    for _i in range(_lo, _hd):")
    tiles_at = next(i for i, ln in enumerate(lines)
                    if ln.startswith("    for _tb in prange("))
    main_at = lines.index("        for _i in range(_b0, _b1):")
    assert 0 < head_at < tiles_at < main_at
    return ([ln[8:] for ln in lines[head_at + 1:tiles_at]],
            [ln[12:] for ln in lines[main_at + 1:]])


def _source(lk, args, kw):
    lk.fn(*args, **kw, _range=(0, 0))       # generates; sweeps nothing
    return lk.source


def _with_wrap_tests(main):
    """A main-sweep body with every affine load spelled the way the
    un-peeled loop spelled it for every element."""
    body = []
    for ln in main:
        m = re.fullmatch(r"(\w+) = (\w+)\[(_i \+ \w+)\]", ln)
        body += [ln] if m is None else [
            f"_j = {m[3]}", "if _j < 0:", f"    _j += _sz_{m[2]}",
            f"{m[1]} = {m[2]}[_j]"]
    return body if body[0] == "_j = 0" else ["_j = 0", *body]


def test_main_sweep_of_the_volume_kernel_has_no_wrap_test():
    args, kw = _volume_case("double", 120, nx=5, nxny=20)
    _nk, lk = _volume_kernels("double", "python")
    head, main = _bodies(_source(lk, args, dict(kw, out=np.zeros(140))))
    assert not any("_j" in ln or "_sz_" in ln for ln in main), main
    assert head == _with_wrap_tests(main)
    assert sum(ln.startswith("_j = _i + ") for ln in head) == 9


def test_data_dependent_wraps_are_in_both_bodies():
    args, kw = _fd_mm_case("single")
    nk, lk = _fd_mm_kernels("single", "python")
    head, main = _bodies(_source(lk, args, kw))
    assert head == _with_wrap_tests(main) and head != main
    gathers = sum(isinstance(op, (TakeOp, IndexStoreOp))
                  for op in nk.program.ops)
    assert sum(ln == "if _j < 0:" for ln in main) == gathers > 0
    assert not any(ln.startswith("_j = _i") for ln in main)


@pytest.mark.skipif("cc" not in available_tiers(), reason="no C compiler")
def test_c_rendering_is_one_head_and_one_parallel_main_loop():
    args, kw = _volume_case("double", 120, nx=5, nxny=20)
    _nk, lk = _volume_kernels("double", "cc")
    src = _source(lk, args, dict(kw, out=np.zeros(140)))
    assert "_tile" not in src
    head, main = src.split("#pragma omp parallel for schedule(static)\n")
    assert head.count("for (long long _i = _lo; _i < _hd; ++_i)") == 1
    assert main.count("for (long long _i = _hd; _i < _n; ++_i)") == 1
    assert src.count("for (") == 2
    assert "_j" not in main and "_sz_" not in main
    assert head.count("if (_j < 0) _j += _sz_") == 9
