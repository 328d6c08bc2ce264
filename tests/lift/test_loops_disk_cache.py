"""The on-disk compiled-artifact cache for the loops backend's cc tier.

Artifacts are content-addressed by (source, compiler identity, flags): a
second build of identical source — in this process or any other — is a
dlopen, not a compile, once the artifact's bytes match the digest
recorded beside it when it was built; one that does not is built again
and counted as ``corrupt``.  Beside them, a probe record keeps the flag-ladder
rung and psABI level a compiler's probe found on this CPU, so a process
that only loads artifacts runs no compiler at all.  These tests drive
``_cc_build`` directly with tiny C sources so they are independent of
which kernels the suite compiled.
"""

import ctypes
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.acoustics.lift_programs import volume_kernel
from repro.lift.codegen import loops
from repro.lift.codegen.numpy_backend import compile_numpy

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
    source = _source("corrupt")
    key = loops._cc_key(CC, " ".join(loops._cc_flags()), source)
    planted = cache_dir / f"corrupt-{key}.so"
    planted.write_bytes(b"not a shared object")
    base = loops.loops_disk_cache_stats()
    lib = loops._cc_build(CC, source, "corrupt")
    getattr(lib, "repro_loop_corrupt")
    stats = loops.loops_disk_cache_stats()
    assert stats["hits"] == base["hits"]                 # rebuilt, not hit
    assert stats["misses"] == base["misses"] + 1
    assert stats["corrupt"] == base["corrupt"] + 1


#: where the flipped byte lands, as a fraction of the ``.so``'s length:
#: its first byte (the ELF magic) and six drawn by ``random.Random(16)``
FLIPS = [0.0, *sorted(round(random.Random(16).random(), 4)
                      for _ in range(6))]


@pytest.mark.parametrize("where", FLIPS)
def test_a_flipped_byte_is_rebuilt_before_it_loads(cache_dir, where):
    """A byte flipped anywhere in a cached ``.so`` fails its digest: the
    artifact is built again, replaced and counted, and the next load of
    the replacement is a hit."""
    tag = f"flip{FLIPS.index(where)}"
    loops._cc_build(CC, _source(tag), tag)
    (so,) = cache_dir.glob(f"{tag}-*.so")
    data = bytearray(so.read_bytes())
    data[min(int(where * len(data)), len(data) - 1)] ^= 0xFF
    # a new file: this process has the old one mapped
    flipped = cache_dir / "flipped"
    flipped.write_bytes(bytes(data))
    os.replace(flipped, so)
    base = loops.loops_disk_cache_stats()
    getattr(loops._cc_build(CC, _source(tag), tag), f"repro_loop_{tag}")
    stats = loops.loops_disk_cache_stats()
    assert stats["corrupt"] == base["corrupt"] + 1
    assert (stats["hits"], stats["misses"]) == (base["hits"],
                                                base["misses"] + 1)
    assert so.read_bytes() != bytes(data)
    loops._cc_build(CC, _source(tag), tag)
    assert loops.loops_disk_cache_stats()["hits"] == base["hits"] + 1


def test_a_so_without_its_digest_is_rebuilt(cache_dir):
    """A ``.so`` whose digest is missing (a build another process has
    renamed into place but not yet recorded) is never loaded: it is
    built again — the process loads its own build, from the temp file it
    hashed — and its digest written."""
    loops._cc_build(CC, _source("nodigest"), "nodigest")
    (digest,) = cache_dir.glob("nodigest-*.so.sha256")
    digest.unlink()
    base = loops.loops_disk_cache_stats()
    loads, real = [], ctypes.CDLL
    loops.ctypes.CDLL = lambda path, *a, **k: loads.append(
        os.path.basename(path)) or real(path, *a, **k)
    try:
        loops._cc_build(CC, _source("nodigest"), "nodigest")
    finally:
        loops.ctypes.CDLL = real
    stats = loops.loops_disk_cache_stats()
    assert stats["corrupt"] == base["corrupt"] + 1
    assert stats["misses"] == base["misses"] + 1
    (loaded,) = loads
    assert loaded.startswith(".build-") and digest.exists()


def test_a_build_loads_the_bytes_it_hashed(cache_dir, monkeypatch):
    """Another process's build renamed over this one's right after its
    rename (a valid ``.so`` of the same symbol) does not replace this
    process's own build: the build is loaded before it is renamed."""
    other = loops._cc_build(
        CC, "int repro_loop_which(void) { return 2; }\n", "other",
        cache=False)
    real = os.replace

    def racing_replace(src, dst):
        real(src, dst)
        if str(dst).endswith(".so"):        # the other build lands
            theirs = f"{dst}.theirs"
            with open(other._name, "rb") as f, open(theirs, "wb") as out:
                out.write(f.read())
            real(theirs, dst)

    monkeypatch.setattr(loops.os, "replace", racing_replace)
    lib = loops._cc_build(CC, "int repro_loop_which(void) { return 1; }\n",
                          "which")
    monkeypatch.undo()
    assert lib.repro_loop_which() == 1


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
    assert set(disk) >= {"enabled", "hits", "misses", "entries", "probed",
                         "cc_rung", "cc_isa"}


# -- the probe record -------------------------------------------------------

_STEP = """
import subprocess, sys
import numpy as np
if sys.argv[2] == "warm":
    def _refuse(*args, **kwargs):
        raise AssertionError(f"a warm process ran {args}")
    subprocess.run = _refuse
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.lift.codegen.loops import loops_disk_cache_stats
sim = RoomSimulation(SimConfig(room=Room(Grid3D(16, 12, 10), BoxRoom()),
                               scheme="fd_mm", backend="numba"))
sim.add_impulse("center")
for _ in range(3):
    sim.step()
np.save(sys.argv[1], sim.curr)
stats = loops_disk_cache_stats()
print(stats["misses"], stats["probed"], stats["cc_rung"], stats["cc_isa"])
"""


def test_a_warm_process_starts_no_compiler(cache_dir, tmp_path):
    """The second process finds every artifact and the probe record: it
    steps with ``subprocess.run`` refusing, to the last bit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_LOOPS_CACHE_DIR": str(cache_dir),
           "REPRO_LOOP_TIER": "cc",
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = []
    for role in ("cold", "warm"):
        out = tmp_path / f"{role}.npy"
        proc = subprocess.run([sys.executable, "-c", _STEP, str(out), role],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append((proc.stdout.split(), np.load(out)))
    (cold, field), (warm, again) = outs
    assert cold[:2] == ["1", "True"]
    assert cold[3] == str(loops._cc_built()[1])
    assert warm == ["0", "False", *cold[2:]]
    assert np.array_equal(field, again)
    assert len(list(cache_dir.glob("cc-probe-*.txt"))) == 1


_FLIPPED = """
import sys
import numpy as np
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.lift.codegen.loops import loops_disk_cache_stats
sim = RoomSimulation(SimConfig(room=Room(Grid3D(20, 16, 12), BoxRoom()),
                               scheme="fd_mm", backend="numba"))
sim.add_impulse("center")
sim.run(5)
np.savez(sys.argv[1], prev=sim.prev, curr=sim.curr, g1=sim.g1, v=sim.v)
stats = loops_disk_cache_stats()
print(stats["corrupt"], stats["misses"], stats["hits"])
"""


def test_a_flipped_step_is_rebuilt_not_run(tmp_path):
    """A byte flipped in the cached ``.so`` of a ``numba`` step: the
    next process builds it again rather than load it, and steps what a
    process with the cache off steps, bit for bit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = {}
    for role, cache in (("cold", tmp_path / "cache"),
                        ("flipped", tmp_path / "cache"), ("off", "off")):
        if role == "flipped":
            (so,) = (tmp_path / "cache").glob("step_*.so")
            data = bytearray(so.read_bytes())
            data[random.Random(16).randrange(len(data))] ^= 0xFF
            so.write_bytes(bytes(data))
        env = {**os.environ, "REPRO_LOOPS_CACHE_DIR": str(cache),
               "REPRO_LOOP_TIER": "cc", "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"{role}.npz"
        proc = subprocess.run([sys.executable, "-c", _FLIPPED, str(out)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[role] = (proc.stdout.split(), dict(np.load(out)))
    assert runs["cold"][0] == ["0", "1", "0"]
    assert runs["flipped"][0] == ["1", "1", "0"]      # rebuilt, not loaded
    for name, value in runs["off"][1].items():
        assert np.array_equal(runs["flipped"][1][name], value), name


def _volume_loop():
    """A cc-tier launch and a call that builds it and sweeps zeros."""
    nk = compile_numpy(volume_kernel("double").kernel, "volume_kernel")
    lk = loops.compile_launch(nk.program, tier="cc")
    z = np.zeros(260)
    return lk, lambda: lk.fn(prev=z, curr=z, nbrs=np.zeros(260, np.int8),
                             l=0.57, Nx=5, NxNy=20, N=240, NP=260,
                             out=z.copy())


def test_a_stale_record_is_probed_again_before_a_build(
        cache_dir, fakecc, monkeypatch):
    """A record that names a rung the compiler now refuses costs nothing
    until something must be compiled; then the process probes, builds on
    the rung it found, and rewrites the record."""
    monkeypatch.setenv("CC", str(fakecc))
    monkeypatch.setattr(loops, "_cc_state", {})
    record = Path(loops._cc_probe_record(str(fakecc)))
    record.write_text(f"vector+openmp {loops._cc_isa()}")
    lk, build = _volume_loop()
    assert lk.cc_rung == "vector+openmp"
    assert loops.loops_disk_cache_stats()["probed"] is False
    base = loops.loops_disk_cache_stats()["misses"]
    build()
    stats = loops.loops_disk_cache_stats()
    assert stats["probed"] is True and stats["misses"] == base + 1
    assert lk.cc_rung == stats["cc_rung"] in ("openmp", "plain")
    assert record.read_text() == f"{lk.cc_rung} {lk.cc_isa}"


def test_a_disabled_cache_probes_every_process_and_records_nothing(
        cache_dir, monkeypatch):
    loops.set_loops_cache_dir(None)
    for _process in range(2):
        monkeypatch.setattr(loops, "_cc_state", {})
        assert loops._cc_path() == CC
        assert loops.loops_disk_cache_stats()["probed"] is True
    assert list(cache_dir.iterdir()) == []


def test_touching_the_compiler_ignores_its_record(
        cache_dir, fakecc, monkeypatch):
    """The record and every artifact key name the compiler by its file's
    size and modification time, so an in-place upgrade probes again."""
    monkeypatch.setenv("CC", str(fakecc))
    cc = str(fakecc)
    monkeypatch.setattr(loops, "_cc_state", {})
    assert loops._cc_path() == cc
    assert loops.loops_disk_cache_stats()["probed"] is True
    record, key = loops._cc_probe_record(cc), loops._cc_key(cc, "src")
    assert Path(record).read_text().split() == [
        str(x) for x in loops._cc_built()]

    monkeypatch.setattr(loops, "_cc_state", {})        # the next process
    assert loops._cc_path() == cc
    assert loops.loops_disk_cache_stats()["probed"] is False

    st = fakecc.stat()
    os.utime(fakecc, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert loops._cc_probe_record(cc) != record
    assert loops._cc_key(cc, "src") != key
    monkeypatch.setattr(loops, "_cc_state", {})
    assert loops._cc_path() == cc
    assert loops.loops_disk_cache_stats()["probed"] is True


# -- the CPU's psABI level --------------------------------------------------

def test_two_cpus_share_one_cache_directory(cache_dir, fakecc, monkeypatch):
    """A v4 and a v3 host over one directory: two probe records, two
    artifacts of one source, and neither ever loads the other's."""
    monkeypatch.setenv("CC", str(fakecc))
    loaded, real = [], ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda path, *a, **k: loaded.append(path)
                        or real(path, *a, **k))
    artifacts = {}
    for process, level in enumerate(["x86-64-v4", "x86-64-v3"] * 2):
        monkeypatch.setattr(loops, "_cc_isa", lambda level=level: level)
        monkeypatch.setattr(loops, "_cc_state", {})
        loaded.clear()
        base = loops.loops_disk_cache_stats()
        loops._cc_build(str(fakecc), _source("cpu"), "cpu")
        stats = loops.loops_disk_cache_stats()
        if stats["cc_isa"] is None:
            pytest.skip("the compiler predates psABI levels")
        assert stats["cc_isa"] == level
        assert stats["probed"] is (process < 2)
        assert stats["misses"] - base["misses"] == (process < 2)
        assert f"{stats['cc_rung']} {level}" in {
            p.read_text() for p in cache_dir.glob("cc-probe-*.txt")}
        # a build loads its own temp file, then renames it to the artifact
        (so,) = [re.sub(r"/\.build-\d+-([^/]*)$", r"/\1", p)
                 for p in loaded if p.startswith(str(cache_dir))]
        assert artifacts.setdefault(level, so) == so
    assert len(list(cache_dir.glob("cc-probe-*.txt"))) == 2
    assert sorted(p.name for p in cache_dir.glob("cpu-*.so")) == sorted(
        os.path.basename(so) for so in artifacts.values())
    assert len(set(artifacts.values())) == 2


def test_a_compiler_without_psabi_levels_keeps_its_rung(
        cache_dir, oldcc, monkeypatch):
    """A compiler that rejects ``-march=x86-64-v4`` (gcc < 11) walks the
    ladder again without it: the same rung, recorded with no level."""
    rung = loops._cc_built()[0]
    monkeypatch.setenv("CC", str(oldcc))
    monkeypatch.setattr(loops, "_cc_isa", lambda: "x86-64-v4")
    for process in range(2):
        monkeypatch.setattr(loops, "_cc_state", {})
        assert loops._cc_path() == str(oldcc)
        stats = loops.loops_disk_cache_stats()
        assert stats["probed"] is (process == 0)
        assert (stats["cc_rung"], stats["cc_isa"]) == (rung, None)
    assert Path(loops._cc_probe_record(str(oldcc))).read_text() == (
        f"{rung} None")
    assert not [f for f in loops._cc_flags() if f.startswith("-m")]
    lib = loops._cc_build(str(oldcc), _source("old"), "old")
    getattr(lib, "repro_loop_old")
