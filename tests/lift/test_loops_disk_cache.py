"""The on-disk compiled-artifact cache for the loops backend's cc tier.

Artifacts are content-addressed by (source, compiler, flags): a second
build of identical source — in this process or any other — is a dlopen,
not a compile.  These tests drive ``_cc_build`` directly with tiny C
sources so they are independent of which kernels the suite compiled.
"""

import ctypes

import pytest

from repro.lift.codegen import loops

CC = loops._cc_path()

pytestmark = pytest.mark.skipif(CC is None, reason="no working C compiler")


@pytest.fixture
def cache_dir(tmp_path):
    """Point the process cache at a fresh directory; restore after."""
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path)
    yield tmp_path
    loops.set_loops_cache_dir(prev)


def _source(tag):
    return f"void repro_loop_{tag}(long long n) {{ (void)n; }}\n"


def test_miss_then_hit(cache_dir):
    base = loops.loops_disk_cache_stats()
    lib = loops._cc_build(CC, _source("tcache"), "tcache")
    assert isinstance(lib, ctypes.CDLL)
    after_miss = loops.loops_disk_cache_stats()
    assert after_miss["misses"] == base["misses"] + 1
    assert after_miss["hits"] == base["hits"]
    assert after_miss["entries"] == 1

    lib2 = loops._cc_build(CC, _source("tcache"), "tcache")
    getattr(lib2, "repro_loop_tcache")
    after_hit = loops.loops_disk_cache_stats()
    assert after_hit["hits"] == base["hits"] + 1
    assert after_hit["misses"] == after_miss["misses"]   # no recompile
    assert after_hit["entries"] == 1                     # same artifact


def test_different_source_is_a_new_entry(cache_dir):
    loops._cc_build(CC, _source("one"), "k")
    loops._cc_build(CC, _source("two"), "k")
    stats = loops.loops_disk_cache_stats()
    assert stats["entries"] == 2
    sos = sorted(p.name for p in cache_dir.glob("*.so"))
    assert len(sos) == 2
    assert all(name.startswith("k-") for name in sos)


def test_artifact_names_are_content_addressed(cache_dir):
    loops._cc_build(CC, _source("addr"), "addr")
    (artifact,) = cache_dir.glob("*.so")
    stem, _, keypart = artifact.stem.partition("-")
    assert stem == "addr"
    assert len(keypart) == 16
    assert all(c in "0123456789abcdef" for c in keypart)


def test_corrupt_artifact_falls_back_to_rebuild(cache_dir):
    # plant an unloadable artifact at the content-addressed path this
    # source will hash to (never dlopen'd, so safe to replace in place)
    import hashlib
    source = _source("corrupt")
    flags = loops._CC_FLAGS + loops._CC_LADDER[loops._cc_rung()]
    key = hashlib.sha1("|".join(
        ("v1", CC, " ".join(flags), source)).encode()).hexdigest()
    planted = cache_dir / f"corrupt-{key[:16]}.so"
    planted.write_bytes(b"not a shared object")
    base = loops.loops_disk_cache_stats()
    lib = loops._cc_build(CC, source, "corrupt")
    getattr(lib, "repro_loop_corrupt")
    stats = loops.loops_disk_cache_stats()
    assert stats["hits"] == base["hits"]                 # rebuilt, not hit
    assert stats["misses"] == base["misses"] + 1


def test_disabled_cache_still_builds(cache_dir):
    loops.set_loops_cache_dir(None)
    stats = loops.loops_disk_cache_stats()
    assert stats["enabled"] is False
    base = (stats["hits"], stats["misses"])
    lib = loops._cc_build(CC, _source("nocache"), "nocache")
    getattr(lib, "repro_loop_nocache")
    stats = loops.loops_disk_cache_stats()
    # a disabled cache never counts and never persists
    assert (stats["hits"], stats["misses"]) == base
    assert list(cache_dir.glob("*.so")) == []


def test_env_off_disables(cache_dir, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LOOPS_CACHE_DIR", "off")
    saved = dict(loops._disk_cache)
    loops._disk_cache.pop("dir", None)                   # force re-resolve
    try:
        assert loops.loops_cache_dir() is None
        assert loops.loops_disk_cache_stats()["enabled"] is False
    finally:
        loops._disk_cache.clear()
        loops._disk_cache.update(saved)


def test_env_path_relocates(cache_dir, monkeypatch, tmp_path):
    target = tmp_path / "relocated"
    monkeypatch.setenv("REPRO_LOOPS_CACHE_DIR", str(target))
    saved = dict(loops._disk_cache)
    loops._disk_cache.pop("dir", None)
    try:
        assert loops.loops_cache_dir() == str(target)
    finally:
        loops._disk_cache.clear()
        loops._disk_cache.update(saved)


def test_surfaced_in_kernel_cache_stats(cache_dir):
    from repro.gpu.runtime import kernel_cache_stats
    stats = kernel_cache_stats()
    assert "loops_disk" in stats
    disk = stats["loops_disk"]
    assert disk["dir"] == str(cache_dir)
    assert set(disk) >= {"enabled", "hits", "misses", "entries"}
