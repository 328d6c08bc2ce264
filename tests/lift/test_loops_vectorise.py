"""The C tier's main sweep is vectorised, and says which flags built it.

``-O2`` alone never vectorises a generated kernel: GCC's ``tree-sink``
pass moves the loads feeding the taken arm of the ``where`` select behind
the select's test and the vectoriser gives up with ``not vectorized:
control flow in loop``.  The first rung of ``loops._CC_LADDER`` turns
that off; a compiler that refuses the rung still builds, on a later one,
and the kernel records which.  The contract pinned here is the
compiler's own vectorisation report, not the flag list.
"""

import re
import stat
import subprocess

import numpy as np
import pytest

from repro.acoustics.lift_programs import fi_fused_flat, volume_kernel
from repro.lift.codegen import loops
from repro.lift.codegen.arena import Workspace
from repro.lift.codegen.numpy_backend import compile_numpy

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
    lk = loops.compile_loops(nk.program, tier="cc")
    lk.fn(*args, **kw, out=np.zeros(N + NXNY, dt), _range=(0, 0))
    assert lk.cc_rung.startswith("vector")
    lines = lk.source.splitlines()
    first = next(i for i, ln in enumerate(lines, 1)
                 if "for (long long _i = _hd;" in ln)
    last = max(i for i, ln in enumerate(lines, 1) if ln == "    }")
    src = tmp_path / f"{name}.c"
    src.write_text(lk.source)
    report = subprocess.run(
        [CC, *loops._CC_FLAGS, *loops._CC_LADDER[lk.cc_rung],
         "-fopt-info-vec-optimized", str(src), "-o", str(tmp_path / "k.so"),
         "-lm"], capture_output=True, text=True)
    assert report.returncode == 0, report.stderr
    vectorised = [int(m.group(1)) for m in re.finditer(
        r"\.c:(\d+):\d+: optimized: loop vectorized", report.stderr)]
    assert any(first <= ln <= last for ln in vectorised), report.stderr
    # the wraparound head keeps its wrap test: never a vector loop
    assert not any(ln < first for ln in vectorised)


def test_a_compiler_that_refuses_the_vector_rung_still_builds(
        tmp_path, monkeypatch):
    nk, args, kw, dt = _case("volume_kernel", "double", np.int8)
    ref = np.zeros(N + NXNY, dt)
    nk.fn(*args, **kw, out=ref, _ws=Workspace("ref"))
    native = loops.compile_loops(nk.program, tier="cc")
    out = np.zeros_like(ref)
    native.fn(*args, **kw, out=out)
    assert np.array_equal(out, ref)

    fake = tmp_path / "fakecc"
    fake.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do case "$a" in -fvect-cost-model=*)\n'
        '  echo "fakecc: unknown argument: $a" >&2; exit 1;; esac; done\n'
        f'exec {CC} "$@"\n')
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("CC", str(fake))
    monkeypatch.setattr(loops, "_cc_state", {})          # probe again
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path / "cache")
    try:
        lk = loops.compile_loops(nk.program, tier="cc")
        out = np.zeros_like(ref)
        lk.fn(*args, **kw, out=out)
        stats = loops.loops_disk_cache_stats()
    finally:
        loops.set_loops_cache_dir(prev)
    assert lk.tier == "cc" and loops._cc_path() == str(fake)
    assert lk.cc_rung in ("openmp", "plain")
    assert stats["cc_rung"] == lk.cc_rung
    assert np.array_equal(out, ref)


def test_flag_ladder_is_portable():
    """No rung names the build host's instruction set, so a cached
    ``.so`` loads on any machine of the same architecture."""
    for flags in loops._CC_LADDER.values():
        assert not [f for f in (*loops._CC_FLAGS, *flags)
                    if f.startswith("-m")]
    assert list(loops._CC_LADDER)[-1] == "plain"
