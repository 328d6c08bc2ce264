"""Lowered step programs in the loops disk cache.

``numba`` and ``numpy-steady`` simulations take their ``ArenaProgram`` s
from :func:`~repro.lift.codegen.loops.lowered_programs`: the first
process lowers and stores them beside the ``.so`` files, a later one
unpickles them and loads none of the LIFT front end.  A cached program
must be the fresh lowering, to the last bit of what it runs, and
anything the key covers — the LIFT sources, the builders' module,
NumPy's version — or a damaged artifact must lower afresh.
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
from repro.acoustics import sim as sim_module
from repro.acoustics.lift_programs import fi_fused_flat
from repro.lift.codegen import loops
from repro.lift.codegen.numpy_backend import lower_arena

#: the front end a warm process must not load
FRONT_END = tuple(f"repro.lift.{m}" for m in (
    "ast", "arith", "types", "patterns", "type_inference", "rewrite",
    "views", "memory")) + ("repro.lift.codegen.numpy_backend",)


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
from repro.acoustics import sim as sim_module
from repro.lift.codegen.loops import loops_disk_cache_stats
sim = RoomSimulation(SimConfig(room=Room(Grid3D(16, 12, 10), BoxRoom()),
                               scheme="fd_mm", backend=sys.argv[2]))
sim.add_impulse("center")
for _ in range(3):
    sim.step()
np.save(sys.argv[1], sim.curr)
stats = loops_disk_cache_stats()
loaded = [m for m in sys.argv[3:] if m in sys.modules]
print(stats["lowered_hits"], stats["lowered_misses"], " ".join(loaded))
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_warm_process_loads_no_lift_front_end(backend, tmp_path):
    """Two interpreters over one fresh cache: the first lowers both
    ``fd_mm`` programs and stores them, the second unpickles both, loads
    no module of the front end and steps the same field, bit for
    bit."""
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
    assert cold[:2] == ["0", "2"] and len(cold) > 2     # lowered: front end
    assert warm == ["2", "0"]
    assert np.array_equal(field, again)
    assert len(list((tmp_path / "cache").glob("lowered-*.pkl"))) == 1


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
    _sim(scheme, precision, backend)                  # stores the lowering
    with monkeypatch.context() as m:                  # lowers in process
        m.setattr(sim_module, "lowered_programs",
                  lambda what, builders, lower: lower())
        fresh = _sim(scheme, precision, backend)
    hits = loops.loops_disk_cache_stats()["lowered_hits"]
    cached = _sim(scheme, precision, backend)
    n = len(cached._step.programs)
    assert loops.loops_disk_cache_stats()["lowered_hits"] == hits + n

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


# -- what lowers afresh ----------------------------------------------------

class _Lowering:
    """``fi_fused_flat``'s lowering, counting the calls that ran it."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        p = fi_fused_flat("double")
        return [lower_arena(p.kernel, p.name)]


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A copy of the LIFT sources and a builders module, digested in
    place of the real ones."""
    lift = tmp_path / "src" / "lift"
    shutil.copytree(loops._LIFT_DIR, lift,
                    ignore=shutil.ignore_patterns("__pycache__"))
    builders = tmp_path / "src" / "builders.py"
    builders.write_text("BUILDERS = 1\n")
    monkeypatch.setattr(loops, "_LIFT_DIR", str(lift))
    monkeypatch.setattr(loops, "_source_digests", {})
    return lift, builders


def _lowered(builders, lower):
    return loops.lowered_programs(("t", "double"), str(builders), lower)


@pytest.mark.parametrize("where", ["types.py", "codegen/arena.py",
                                   "builders"])
def test_a_changed_source_byte_lowers_afresh(cache_dir, tree, where):
    lift, builders = tree
    lower = _Lowering()
    fresh = _lowered(builders, lower)
    assert _lowered(builders, lower) == fresh and lower.calls == 1
    path = builders if where == "builders" else lift / where
    data = bytearray(path.read_bytes())
    data[-1:] = b" " if data[-1:] != b" " else b"\t"
    path.write_bytes(bytes(data))
    loops._source_digests.clear()                 # a new process
    assert _lowered(builders, lower) == fresh and lower.calls == 2
    assert len(list(cache_dir.glob("lowered-*.pkl"))) == 2


def test_another_numpy_version_lowers_afresh(cache_dir, tree, monkeypatch):
    _lift, builders = tree
    lower = _Lowering()
    _lowered(builders, lower)
    monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
    _lowered(builders, lower)
    assert lower.calls == 2
    assert len(list(cache_dir.glob("lowered-*.pkl"))) == 2


@pytest.mark.parametrize("damage", ["truncated", "garbage", "not programs",
                                    "empty"])
def test_a_bad_artifact_is_replaced(cache_dir, tree, damage):
    _lift, builders = tree
    lower = _Lowering()
    fresh = _lowered(builders, lower)
    (artifact,) = cache_dir.glob("lowered-*.pkl")
    data = artifact.read_bytes()
    artifact.write_bytes({"truncated": data[:len(data) // 2],
                          "garbage": b"\x80\x05not a pickle",
                          "not programs": pickle.dumps(["fi_fused_flat"]),
                          "empty": b""}[damage])
    base = loops.loops_disk_cache_stats()
    assert _lowered(builders, lower) == fresh and lower.calls == 2
    assert artifact.read_bytes() != b""
    assert _lowered(builders, lower) == fresh and lower.calls == 2
    stats = loops.loops_disk_cache_stats()
    assert stats["lowered_misses"] == base["lowered_misses"] + 1
    assert stats["lowered_hits"] == base["lowered_hits"] + 1


def test_a_disabled_cache_lowers_every_time_and_writes_nothing(
        cache_dir, tree):
    _lift, builders = tree
    loops.set_loops_cache_dir(None)
    base = loops.loops_disk_cache_stats()
    lower = _Lowering()
    _lowered(builders, lower)
    _lowered(builders, lower)
    assert lower.calls == 2
    assert not cache_dir.exists()
    stats = loops.loops_disk_cache_stats()
    assert (stats["lowered_hits"], stats["lowered_misses"]) == (
        base["lowered_hits"], base["lowered_misses"])
