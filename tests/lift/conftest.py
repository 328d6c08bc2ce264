"""Fixtures shared by the loop-emitter tests."""

import re
import stat
import subprocess

import pytest

from repro.lift.codegen import loops


def _wrapped_cc(tmp_path, name, refused):
    """A wrapper around this host's C compiler that fails on every
    argument matching the shell pattern ``refused``."""
    cc = loops._cc_path()
    if cc is None:
        pytest.skip("no working C compiler")
    fake = tmp_path / name
    fake.write_text(
        "#!/bin/sh\n"
        f'for a in "$@"; do case "$a" in {refused})\n'
        f'  echo "{name}: unknown argument: $a" >&2; exit 1;; esac; done\n'
        f'exec {cc} "$@"\n')
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    return fake


@pytest.fixture
def fakecc(tmp_path):
    """A compiler that refuses ``-fvect-cost-model=`` the way clang
    does, so its probe settles on a rung without the vector flags."""
    return _wrapped_cc(tmp_path, "fakecc", "-fvect-cost-model=*")


@pytest.fixture
def oldcc(tmp_path):
    """A compiler that refuses every ``-march=x86-64-v<n>`` the way gcc
    before 11 does, so its probe keeps a rung at the baseline level."""
    return _wrapped_cc(tmp_path, "oldcc", "-march=x86-64-v*")


def vectorised_lines(cc, flags, source, tmp_path) -> list[int]:
    """The source lines of the loops gcc reports vectorised when it
    builds ``source`` with ``flags`` (``-fopt-info-vec-optimized``)."""
    src = tmp_path / "report.c"
    src.write_text(source)
    report = subprocess.run(
        [cc, *flags, "-fopt-info-vec-optimized", str(src),
         "-o", str(tmp_path / "report.so"), "-lm"],
        capture_output=True, text=True)
    assert report.returncode == 0, report.stderr
    return [int(m.group(1)) for m in re.finditer(
        r"\.c:(\d+):\d+: optimized: loop vectorized", report.stderr)]


def launch_args(lk, args, kw) -> dict:
    """A one-program launch step's arguments by parameter name, as the
    virtual runtime binds them: ``args`` positionally, then ``kw``."""
    return {**dict(zip(lk.param_names, args)), **kw}
