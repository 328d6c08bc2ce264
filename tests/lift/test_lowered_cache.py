"""The lowered step programs of ``numba`` and ``numpy-steady``.

Both backends step the launches of the scheme's compiled host program,
in plan order — the program ``virtual_gpu`` runs, which
:func:`~repro.acoustics.host_io.host_program` keeps in the loops disk
cache: the first process compiles and stores it beside the ``.so``
files, a later one unpickles it and loads none of the LIFT front end.
A cached program must be the fresh lowering, to the last bit of what it
runs, and anything the key covers — the LIFT sources, the builders'
module, NumPy's version — or a damaged artifact must compile afresh.
"""

import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.acoustics import host_io, lift_programs
from repro.acoustics import sim as sim_module
from repro.acoustics.lift_programs import compiled_host
from repro.gpu.runtime import clear_kernel_caches
from repro.lift.codegen import loops

#: the front end a warm process must not load (the plan's data model,
#: ``lift.arith`` and ``lift.types`` are not part of it)
FRONT_END = tuple(f"repro.lift.{m}" for m in (
    "ast", "patterns", "type_inference", "rewrite", "views", "memory",
    "analysis", "codegen.numpy_backend", "codegen.opencl",
    "codegen.host")) + ("repro.acoustics.lift_programs",)


def _compiled() -> bool:
    try:
        loops.select_tier()
    except loops.LoopsUnsupported:
        return False
    return True


BACKENDS = [pytest.param("numba", marks=pytest.mark.skipif(
    not _compiled(), reason="no compiled loop tier on this host")),
    "numpy-steady"]


@pytest.fixture
def cache_dir(tmp_path):
    """Point the process cache at a fresh directory; restore after."""
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path / "cache")
    yield tmp_path / "cache"
    loops.set_loops_cache_dir(prev)


# -- a warm process --------------------------------------------------------

_STEP = """
import sys
import numpy as np
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.lift.codegen.loops import loops_disk_cache_stats
sim = RoomSimulation(SimConfig(room=Room(Grid3D(16, 12, 10), BoxRoom()),
                               scheme="fd_mm", backend=sys.argv[2]))
sim.add_impulse("center")
for _ in range(3):
    sim.step()
np.save(sys.argv[1], sim.curr)
stats = loops_disk_cache_stats()
loaded = [m for m in sys.argv[3:] if m in sys.modules]
print(stats["host_hits"], stats["host_misses"], " ".join(loaded))
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_warm_process_loads_no_lift_front_end(backend, tmp_path):
    """Two interpreters over one fresh cache: the first compiles the
    ``fd_mm`` host program and stores it, the second unpickles it,
    steps its two launches, loads no module of the front end and steps
    the same field, bit for bit.  No other pickle is stored."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_LOOPS_CACHE_DIR": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = []
    for role in ("cold", "warm"):
        out = tmp_path / f"{role}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _STEP, str(out), backend, *FRONT_END],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append((proc.stdout.split(), np.load(out)))
    (cold, field), (warm, again) = runs
    assert cold[:2] == ["0", "1"] and len(cold) > 2     # compiled: front end
    assert warm == ["1", "0"]
    assert np.array_equal(field, again)
    pickles = [p.name for p in (tmp_path / "cache").glob("*.pkl")]
    assert len(pickles) == 1 and pickles[0].startswith("host-")


# -- a cached program is the fresh lowering --------------------------------

@pytest.fixture(scope="module")
def matrix_cache(tmp_path_factory):
    """One cache for the matrix, so each step's ``.so`` builds once."""
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path_factory.mktemp("lowered"))
    yield
    loops.set_loops_cache_dir(prev)


def _sim(scheme, precision, backend):
    sim = RoomSimulation(SimConfig(
        room=Room(Grid3D(14, 12, 10), BoxRoom()), scheme=scheme,
        backend=backend, precision=precision))
    sim.add_impulse("center")
    sim.add_receiver("a", "center")
    sim.add_receiver("b", (4, 5, 3))
    return sim


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("scheme", ["fi", "fi_mm", "fd_mm"])
def test_a_cached_program_is_the_fresh_lowering(matrix_cache, monkeypatch,
                                                scheme, precision, backend):
    _sim(scheme, precision, backend)                  # stores the program
    clear_kernel_caches()       # each simulation builds a step of its own
    with monkeypatch.context() as m:                  # compiles in process
        m.setattr(sim_module, "host_program", compiled_host)
        fresh = _sim(scheme, precision, backend)
    clear_kernel_caches()
    hits = loops.loops_disk_cache_stats()["host_hits"]
    cached = _sim(scheme, precision, backend)
    assert loops.loops_disk_cache_stats()["host_hits"] == hits + 1

    ours, theirs = cached._step.programs, fresh._step.programs
    assert all(p.alloc is None for p in ours)
    assert all(p.alloc is not None for p in theirs)
    assert ours == theirs
    for c, f in zip(ours, theirs):
        assert c.render() == f.render()
        assert c.param_names == f.param_names
        assert c.dump() == f.dump()
    assert cached._step.param_names == fresh._step.param_names

    for sim in (fresh, cached):
        sim.run(24)
    assert cached._step.source == fresh._step.source
    for name in ("prev", "curr", "g1", "v"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))
    assert cached.receivers == fresh.receivers


# -- what compiles afresh --------------------------------------------------

class _Compiles:
    """``compiled_host``, counting the calls that ran it."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return compiled_host(*args)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A copy of the LIFT sources and of the builders' module, digested
    in place of the real ones, and a counting ``compiled_host``."""
    lift = tmp_path / "src" / "lift"
    shutil.copytree(loops._LIFT_DIR, lift,
                    ignore=shutil.ignore_patterns("__pycache__"))
    builders = tmp_path / "src" / "lift_programs.py"
    shutil.copy(host_io.BUILDERS, builders)
    monkeypatch.setattr(loops, "_LIFT_DIR", str(lift))
    monkeypatch.setattr(loops, "_source_digests", {})
    monkeypatch.setattr(host_io, "BUILDERS", str(builders))
    compiles = _Compiles()
    monkeypatch.setattr(lift_programs, "compiled_host", compiles)
    return lift, builders, compiles


def _lowered() -> list:
    """The step programs of a ``numpy-steady`` ``fi_mm`` simulation."""
    return _sim("fi_mm", "double", "numpy-steady")._step.programs


@pytest.mark.parametrize("where", ["types.py", "codegen/arena.py",
                                   "builders"])
def test_a_changed_source_byte_lowers_afresh(cache_dir, tree, where):
    lift, builders, compiles = tree
    fresh = _lowered()
    assert _lowered() == fresh and compiles.calls == 1
    path = builders if where == "builders" else lift / where
    data = bytearray(path.read_bytes())
    data[-1:] = b" " if data[-1:] != b" " else b"\t"
    path.write_bytes(bytes(data))
    loops._source_digests.clear()                 # a new process
    assert _lowered() == fresh and compiles.calls == 2
    assert len(list(cache_dir.glob("host-*.pkl"))) == 2


def test_another_numpy_version_lowers_afresh(cache_dir, tree, monkeypatch):
    _lift, _builders, compiles = tree
    _lowered()
    monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
    _lowered()
    assert compiles.calls == 2
    assert len(list(cache_dir.glob("host-*.pkl"))) == 2


@pytest.mark.parametrize("damage", ["truncated", "garbage", "not programs",
                                    "empty"])
def test_a_bad_artifact_is_replaced(cache_dir, tree, damage):
    """A damaged artifact, or a well-framed one that holds no host
    program, is compiled again, replaced and counted as corrupt."""
    _lift, _builders, compiles = tree
    fresh = _lowered()
    (artifact,) = cache_dir.glob("host-*.pkl")
    data = artifact.read_bytes()
    artifact.write_bytes({
        "truncated": data[:len(data) // 2],
        "garbage": b"\x80\x05not a pickle",
        "not programs": loops._frame(pickle.dumps(["fi_fused_flat"])),
        "empty": b""}[damage])
    base = loops.loops_disk_cache_stats()
    assert _lowered() == fresh and compiles.calls == 2
    assert artifact.read_bytes() != b""
    assert _lowered() == fresh and compiles.calls == 2
    stats = loops.loops_disk_cache_stats()
    assert stats["host_misses"] == base["host_misses"] + 1
    assert stats["host_hits"] == base["host_hits"] + 1
    assert stats["corrupt"] == base["corrupt"] + 1


def test_a_disabled_cache_lowers_every_time_and_writes_nothing(
        cache_dir, tree):
    _lift, _builders, compiles = tree
    loops.set_loops_cache_dir(None)
    base = loops.loops_disk_cache_stats()
    _lowered()
    _lowered()
    assert compiles.calls == 2
    assert not cache_dir.exists()
    stats = loops.loops_disk_cache_stats()
    assert (stats["host_hits"], stats["host_misses"]) == (
        base["host_hits"], base["host_misses"])
