"""Fixtures shared by the loop-emitter tests."""

import stat

import pytest

from repro.lift.codegen import loops


@pytest.fixture
def fakecc(tmp_path):
    """A wrapper around this host's C compiler that refuses
    ``-fvect-cost-model=`` the way clang does, so its probe settles on a
    rung without the vector flags."""
    cc = loops._cc_path()
    if cc is None:
        pytest.skip("no working C compiler")
    fake = tmp_path / "fakecc"
    fake.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do case "$a" in -fvect-cost-model=*)\n'
        '  echo "fakecc: unknown argument: $a" >&2; exit 1;; esac; done\n'
        f'exec {cc} "$@"\n')
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    return fake
