"""The C tier's main sweep is vectorised, and says which flags built it.

``-O2`` alone never vectorises a generated kernel: GCC's ``tree-sink``
pass moves the loads feeding the taken arm of the ``where`` select behind
the select's test and the vectoriser gives up with ``not vectorized:
control flow in loop``.  The first rung of ``loops._CC_LADDER`` turns
that off; a compiler that refuses the rung still builds, on a later one,
and the kernel records which.  Every build names the CPU's x86-64 psABI
level, never ``native``.  The contract pinned here is the compiler's
own vectorisation report at the flags the kernels are built with, not
the flag list (for the compiled step the simulation runs, in
``test_loops_step.py``).
"""

import subprocess

import numpy as np
import pytest

from repro.acoustics.lift_programs import fi_fused_flat, volume_kernel
from repro.lift.codegen import loops
from repro.lift.codegen.arena import Workspace
from repro.lift.codegen.numpy_backend import compile_numpy

from .conftest import launch_args, vectorised_lines

CC = loops._cc_path()
pytestmark = pytest.mark.skipif(CC is None, reason="no working C compiler")

N, NX, NXNY = 240, 5, 20


def _is_gcc() -> bool:
    banner = subprocess.run([CC, "--version"], capture_output=True,
                            text=True).stdout
    return "Free Software Foundation" in banner


def _case(name, precision, nbrs_dtype):
    """The steady kernel and call arguments of one volume sweep."""
    dt = np.float32 if precision == "single" else np.float64
    rng = np.random.default_rng(7)
    args = [rng.standard_normal(N + NXNY).astype(dt),
            rng.standard_normal(N + NXNY).astype(dt),
            rng.integers(0, 7, N + NXNY).astype(nbrs_dtype), dt(0.57)]
    if name == "fi_fused_flat":
        nk = compile_numpy(fi_fused_flat(precision).kernel, name)
        args.append(dt(0.3))
    else:
        nk = compile_numpy(volume_kernel(precision).kernel, name)
    return nk, args + [NX, NXNY], dict(N=N, NP=N + NXNY), dt


@pytest.mark.skipif(CC is None or not _is_gcc(),
                    reason="the vectorisation report read here is gcc's")
@pytest.mark.parametrize("nbrs_dtype", [np.int8, np.int32])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("name", ["volume_kernel", "fi_fused_flat"])
def test_main_sweep_is_reported_vectorised(name, precision, nbrs_dtype,
                                           tmp_path):
    nk, args, kw, dt = _case(name, precision, nbrs_dtype)
    lk = loops.compile_launch(nk.program, tier="cc")
    source = loops._build_step(lk, lk.bind(launch_args(
        lk, args, dict(kw, out=np.zeros(N + NXNY, dt))))).source
    assert lk.cc_rung.startswith("vector")
    assert lk.cc_isa == loops._cc_built()[1]
    lines = source.splitlines()
    first = next(i for i, ln in enumerate(lines, 1)
                 if ln.startswith("        for (long long _i = (_hd0 > "))
    last = max(i for i, ln in enumerate(lines, 1) if ln == "        }")
    vectorised = vectorised_lines(
        CC, loops._cc_flags((lk.cc_rung, lk.cc_isa)), source, tmp_path)
    assert any(first <= ln <= last for ln in vectorised), vectorised
    # the wraparound head keeps its wrap test: never a vector loop
    assert not any(ln < first for ln in vectorised)


def test_a_compiler_that_refuses_the_vector_rung_still_builds(
        tmp_path, monkeypatch, fakecc):
    nk, args, kw, dt = _case("volume_kernel", "double", np.int8)
    ref = np.zeros(N + NXNY, dt)
    nk.fn(*args, **kw, out=ref, _ws=Workspace("ref"))
    native = loops.compile_launch(nk.program, tier="cc")
    out = np.zeros_like(ref)
    native.fn(**launch_args(native, args, dict(kw, out=out)))
    assert np.array_equal(out, ref)

    monkeypatch.setenv("CC", str(fakecc))
    monkeypatch.setattr(loops, "_cc_state", {})          # probe again
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path / "cache")
    try:
        lk = loops.compile_launch(nk.program, tier="cc")
        out = np.zeros_like(ref)
        lk.fn(**launch_args(lk, args, dict(kw, out=out)))
        stats = loops.loops_disk_cache_stats()
    finally:
        loops.set_loops_cache_dir(prev)
    assert lk.tier == "cc" and loops._cc_path() == str(fakecc)
    assert lk.cc_rung in ("openmp", "plain")
    assert stats["cc_rung"] == lk.cc_rung
    assert np.array_equal(out, ref)


_LEVELS = [None, "x86-64-v3", "x86-64-v4"]


def test_flag_ladder_is_portable():
    """No flag names ``native``: the one ``-m`` flag is a psABI level,
    never above the one the CPU reports, so a cached ``.so`` runs on any
    machine of that level — and ``plain`` still ends the ladder."""
    isa = loops._cc_isa()
    assert isa in _LEVELS
    for rung in loops._CC_LADDER:
        for level in {isa, None}:
            flags = loops._cc_flags((rung, level))
            assert not [f for f in flags if "native" in f]
            assert [f for f in flags if f.startswith("-m")] == (
                [f"-march={level}"] if level else [])
            assert "-ffp-contract=off" in flags
    assert list(loops._CC_LADDER)[-1] == "plain"
    built = loops._cc_built()[1]
    assert _LEVELS.index(built) <= _LEVELS.index(isa)
    assert [f for f in loops._cc_flags() if f.startswith("-m")] == (
        [f"-march={built}"] if built else [])


@pytest.mark.parametrize("flags, level", [
    ("fpu sse sse2 pni ssse3 cx16 sse4_1 sse4_2 popcnt lahf_lm", None),
    ("pni ssse3 cx16 sse4_1 sse4_2 popcnt lahf_lm avx avx2 bmi1 bmi2 "
     "f16c fma abm movbe xsave", "x86-64-v3"),
    ("pni ssse3 cx16 sse4_1 sse4_2 popcnt lahf_lm avx avx2 bmi1 bmi2 "
     "f16c fma abm movbe xsave avx512f avx512dq avx512cd avx512bw "
     "avx512vl", "x86-64-v4"),
    # AVX-512 without v3's BMI2 is no level at all
    ("pni ssse3 cx16 sse4_1 sse4_2 popcnt lahf_lm avx avx2 bmi1 "
     "f16c fma abm movbe xsave avx512f avx512dq avx512cd avx512bw "
     "avx512vl", None),
], ids=["v2", "v3", "v4", "v4-without-bmi2"])
def test_psabi_level_from_the_cpu_flags(flags, level, tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text(f"processor\t: 0\nflags\t\t: {flags}\n\n"
                       f"processor\t: 1\nflags\t\t: fpu\n")
    assert loops._cc_isa(str(cpuinfo)) == level


def test_no_x86_flags_no_level(tmp_path):
    """Another architecture's cpuinfo, or none at all (another OS)."""
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nFeatures\t: fp asimd evtstrm\n")
    assert loops._cc_isa(str(cpuinfo)) is None
    assert loops._cc_isa(str(tmp_path / "absent")) is None
