"""Compiled host programs in the loops disk cache.

Every simulation backend that steps a LIFT program takes Listing 5's
compiled host program from
:func:`~repro.acoustics.host_io.host_program` (``virtual_gpu`` its
plan, ``numba`` and ``numpy-steady`` its launches): the first process
compiles it, lowers and analyses every kernel, and stores it beside the
``.so`` files; a later one unpickles it and loads none of the LIFT front
end.  A cached plan must run exactly what a fresh ``compiled_host``
runs, and anything the key covers — the LIFT sources, the builders'
module, NumPy's version — or a damaged artifact must compile afresh: a
changed byte anywhere in the artifact fails its frame and is counted as
``corrupt``, never unpickled.  A failed write never fails the run.
"""

import os
import pickle
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.acoustics import BoxRoom, Grid3D, Room, RoomSimulation, SimConfig
from repro.acoustics import host_io, lift_programs
from repro.acoustics import sim as sim_module
from repro.acoustics.lift_programs import compiled_host, two_kernel_host
from repro.gpu import runtime
from repro.lift.codegen import loops
from repro.lift.codegen.host import compile_host
from repro.lift.codegen.plan import HostProgram, Launch

#: what a warm ``virtual_gpu`` process must not load
FRONT_END = tuple(f"repro.lift.{m}" for m in (
    "ast", "patterns", "type_inference", "rewrite", "views", "memory",
    "analysis", "codegen.numpy_backend", "codegen.opencl",
    "codegen.host")) + ("repro.acoustics.lift_programs",)

SCHEMES = ["fi", "fi_mm", "fd_mm"]
PRECISIONS = ["single", "double"]


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
                               scheme="fd_mm", backend="virtual_gpu"))
sim.add_impulse("center")
sim.add_receiver("a", (4, 5, 3))
for _ in range(3):
    sim.step()
assert sim._path == "resident", sim._path
np.savez(sys.argv[1], curr=sim.curr, prev=sim.prev, g1=sim.g1, v=sim.v,
         trace=np.array(sim.receivers["a"][1]),
         ms=np.array(sim.modelled_gpu_time_ms))
stats = loops_disk_cache_stats()
loaded = [m for m in sys.argv[2:] if m in sys.modules]
print(stats["host_hits"], stats["host_misses"], stats["misses"],
      " ".join(loaded))
"""


def test_a_warm_virtual_gpu_process_loads_no_lift_front_end(tmp_path):
    """Two interpreters over one fresh cache: the first compiles the
    ``fd_mm`` host program and stores it, the second unpickles it,
    loads no module of the front end and steps the same field, traces
    and modelled time, bit for bit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_LOOPS_CACHE_DIR": str(tmp_path / "cache"),
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = []
    for role in ("cold", "warm"):
        out = tmp_path / f"{role}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", _STEP, str(out), *FRONT_END],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append((proc.stdout.split(), dict(np.load(out))))
    (cold, first), (warm, again) = runs
    assert cold[:2] == ["0", "1"] and len(cold) > 3     # compiled: front end
    assert warm[:3] == ["1", "0", "0"] and len(warm) == 3, warm
    assert first.keys() == again.keys()
    for name, value in first.items():
        assert np.array_equal(value, again[name]), name
    assert len(list((tmp_path / "cache").glob("host-*.pkl"))) == 1


# -- a cached host program is a fresh compile ------------------------------

def _wiring(program: HostProgram) -> list:
    """The plan with each launch's kernel named, not held."""
    return [(op.kernel.name, op.args, op.out_buffer, op.global_size)
            if isinstance(op, Launch) else op for op in program.plan.ops]


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_cached_host_program_is_a_fresh_compile(cache_dir, scheme,
                                                  precision):
    host_io.host_program(scheme, precision, 3)          # stores it
    hits = loops.loops_disk_cache_stats()["host_hits"]
    cached = host_io.host_program(scheme, precision, 3)
    assert loops.loops_disk_cache_stats()["host_hits"] == hits + 1
    fresh = compiled_host(scheme, precision, 3)

    assert cached.source == fresh.source
    assert cached.param_names == fresh.param_names
    assert cached.plan.buffers == fresh.plan.buffers
    assert cached.plan.result_buffer == fresh.plan.result_buffer
    assert _wiring(cached) == _wiring(fresh)
    assert cached.kernels.keys() == fresh.kernels.keys()
    for name, ks in cached.kernels.items():
        theirs = fresh.kernels[name]
        assert ks.kernel_lambda is None and theirs.kernel_lambda is not None
        assert ks.source == theirs.source
        assert (ks.params, ks.size_params, ks.global_size) == (
            theirs.params, theirs.size_params, theirs.global_size)
        assert ks.allocation == theirs.allocation
        assert ks.resources == theirs.kernel_resources()
        program = theirs.arena_program()
        assert ks.program == program and ks.program.alloc is None
        assert ks.program.render() == program.render()
        assert ks.program.dump() == program.dump()
    # every launch holds the kernel the program lists under its name
    for op in cached.plan.ops:
        if isinstance(op, Launch):
            assert op.kernel is cached.kernels[op.kernel.name]


# -- a cached plan runs what a fresh one runs ------------------------------

@pytest.fixture(scope="module")
def matrix_cache(tmp_path_factory):
    """One cache for the matrix, so each step's ``.so`` builds once."""
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(tmp_path_factory.mktemp("host"))
    yield
    loops.set_loops_cache_dir(prev)


PATHS = {"resident": {}, "resilient": {"resilient": True},
         "pool-loop": {"devices": "TitanBlack:2"}}


def _run(scheme, precision, path, **config):
    """A simulation stepped 12 times on ``path``, with its kernel
    events; the process-wide kernel cache starts empty, so every step
    and NumPy kernel comes from this run's plan, as every resource count
    does."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(runtime, "_NP_KERNEL_CACHE", {})
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(14, 12, 10), BoxRoom()), scheme=scheme,
            precision=precision, backend="virtual_gpu", **PATHS[path],
            **config))
        sim.add_impulse("center")
        sim.add_receiver("a", "center")
        sim.add_receiver("b", (4, 5, 3))
        with obs.observe() as o:
            sim.run(12)
    events = [(s.name, s.duration_ms, s.start_ms)
              for s in o.tracer.find(cat="kernel")]
    assert events
    assert sim._path == ("pool-loop" if path == "pool-loop" else "resident")
    return sim, events


def _same(a, b) -> None:
    (sim, events), (other, theirs) = a, b
    for name in ("prev", "curr", "g1", "v"):
        assert np.array_equal(getattr(sim, name), getattr(other, name)), name
    assert sim.receivers == other.receivers
    assert events == theirs
    assert sim.modelled_gpu_time_ms == other.modelled_gpu_time_ms


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_cached_plan_steps_bit_identically(matrix_cache, monkeypatch,
                                             scheme, precision, path):
    _run(scheme, precision, path)                       # stores the plan
    hits = loops.loops_disk_cache_stats()["host_hits"]
    cached = _run(scheme, precision, path)
    assert loops.loops_disk_cache_stats()["host_hits"] == hits + 1
    with monkeypatch.context() as m:                    # compiles in process
        m.setattr(sim_module, "host_program", compiled_host)
        fresh = _run(scheme, precision, path)
    _same(cached, fresh)


def test_a_hand_compiled_host_program_still_runs(matrix_cache):
    """``SimConfig.host_program`` bypasses the cache: an in-process
    ``compile_host`` output runs and steps what the cached plan
    steps."""
    hp = two_kernel_host("fd_mm", "double", 3)
    mine = compile_host(hp.program, hp.name)
    hits = loops.loops_disk_cache_stats()["host_hits"]
    ours = _run("fd_mm", "double", "resident", host_program=mine)
    assert ours[0]._host_program is mine
    # lowered and analysed once, in process, and kept on each kernel
    assert all(ks.program is not None and ks.resources is not None
               for ks in mine.kernels.values())
    assert loops.loops_disk_cache_stats()["host_hits"] == hits
    _same(ours, _run("fd_mm", "double", "resident"))


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


def _host():
    return host_io.host_program("fi_mm", "double", 3)


@pytest.mark.parametrize("where", ["types.py", "codegen/plan.py",
                                   "builders"])
def test_a_changed_source_byte_compiles_afresh(cache_dir, tree, where):
    lift, builders, compiles = tree
    fresh = _host()
    assert _host().source == fresh.source and compiles.calls == 1
    path = builders if where == "builders" else lift / where
    data = bytearray(path.read_bytes())
    data[-1:] = b" " if data[-1:] != b" " else b"\t"
    path.write_bytes(bytes(data))
    loops._source_digests.clear()                 # a new process
    assert _host().source == fresh.source and compiles.calls == 2
    assert len(list(cache_dir.glob("host-*.pkl"))) == 2


def test_another_numpy_version_compiles_afresh(cache_dir, tree, monkeypatch):
    _lift, _builders, compiles = tree
    _host()
    monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
    _host()
    assert compiles.calls == 2
    assert len(list(cache_dir.glob("host-*.pkl"))) == 2


@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong type",
                                    "not lowered", "empty"])
def test_a_bad_host_artifact_is_replaced(cache_dir, tree, damage):
    _lift, _builders, compiles = tree
    fresh = _host()
    (artifact,) = cache_dir.glob("host-*.pkl")
    data = artifact.read_bytes()
    unlowered = compiled_host("fi_mm", "double", 3)
    for ks in unlowered.kernels.values():
        ks.kernel_lambda = None
    artifact.write_bytes({"truncated": data[:len(data) // 2],
                          "garbage": b"\x80\x05not a pickle",
                          "wrong type": pickle.dumps(["host_fi_mm"]),
                          "not lowered": pickle.dumps(unlowered),
                          "empty": b""}[damage])
    base = loops.loops_disk_cache_stats()
    assert _host().source == fresh.source and compiles.calls == 2
    assert artifact.read_bytes() != b""
    assert _host().source == fresh.source and compiles.calls == 2
    stats = loops.loops_disk_cache_stats()
    assert stats["host_misses"] == base["host_misses"] + 1
    assert stats["host_hits"] == base["host_hits"] + 1


def test_a_disabled_cache_compiles_every_time_and_writes_nothing(
        cache_dir, tree):
    _lift, _builders, compiles = tree
    loops.set_loops_cache_dir(None)
    base = loops.loops_disk_cache_stats()
    _host()
    _host()
    assert compiles.calls == 2
    assert not cache_dir.exists()
    stats = loops.loops_disk_cache_stats()
    assert (stats["host_hits"], stats["host_misses"]) == (
        base["host_hits"], base["host_misses"])


# -- a changed byte is a counted rebuild, never a different answer ---------

def _steps(backend, **config):
    """A 20x16x12 ``fd_mm`` double box stepped 5 times on ``backend``;
    the process-wide kernel cache starts empty."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(runtime, "_NP_KERNEL_CACHE", {})
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(20, 16, 12), BoxRoom()), scheme="fd_mm",
            precision="double", backend=backend, **config))
        sim.add_impulse("center")
        sim.add_receiver("a", (4, 5, 3))
        sim.run(5)
    return sim


def _same_run(sim, other) -> None:
    for name in ("prev", "curr", "g1", "v"):
        assert np.array_equal(getattr(sim, name), getattr(other, name)), name
    assert sim.receivers == other.receivers


def _uncached(backend):
    prev = loops.loops_cache_dir()
    loops.set_loops_cache_dir(None)
    try:
        return _steps(backend)
    finally:
        loops.set_loops_cache_dir(prev)


def _compiled() -> bool:
    try:
        loops.select_tier()
    except loops.LoopsUnsupported:
        return False
    return True


ALL_BACKENDS = [pytest.param("numba", marks=pytest.mark.skipif(
    not _compiled(), reason="no compiled loop tier on this host")),
    "numpy-steady", "virtual_gpu"]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_a_changed_constant_is_rebuilt_not_run(cache_dir, backend):
    """Every ``2.0`` in a cached ``fd_mm`` program turned ``3.0`` (the
    artifact keeps its length, and its payload still unpickles to a
    host program whose kernels compute something else): the frame
    refuses it, the program is compiled again and counted as
    ``corrupt``, and the run matches a run with the cache off."""
    host_io.host_program("fd_mm", "double", 3)          # stores it
    (artifact,) = cache_dir.glob("host-*.pkl")
    data = artifact.read_bytes()
    mutated = data.replace(b"2.0", b"3.0")
    assert mutated != data and len(mutated) == len(data)
    unchecked = pickle.loads(mutated[loops._HEAD:])
    assert isinstance(unchecked, HostProgram)
    assert [ks.program for ks in unchecked.kernels.values()] != [
        ks.program for ks in pickle.loads(data[loops._HEAD:]).kernels.values()]
    artifact.write_bytes(mutated)
    base = loops.loops_disk_cache_stats()
    sim = _steps(backend)
    stats = loops.loops_disk_cache_stats()
    assert stats["corrupt"] == base["corrupt"] + 1
    assert stats["host_misses"] == base["host_misses"] + 1
    assert artifact.read_bytes() != mutated
    _same_run(sim, _uncached(backend))


#: where the flipped bytes land, as fractions of the artifact's length:
#: its first byte (the magic) and six drawn by ``random.Random(16)``
FLIPS = [0.0, *sorted(round(random.Random(16).random(), 4)
                      for _ in range(6))]


@pytest.mark.parametrize("where", FLIPS)
def test_a_flipped_byte_is_rebuilt(cache_dir, tree, where):
    """One byte flipped anywhere in the artifact — frame, digest or
    payload — is compiled again, replaced and counted as ``corrupt``;
    the next process hits the replacement, and a run matches a run
    with the cache off."""
    _lift, _builders, compiles = tree
    fresh = _host()
    (artifact,) = cache_dir.glob("host-*.pkl")
    data = bytearray(artifact.read_bytes())
    offset = min(int(where * len(data)), len(data) - 1)
    data[offset] ^= 0xFF
    artifact.write_bytes(bytes(data))
    base = loops.loops_disk_cache_stats()
    assert _host().source == fresh.source and compiles.calls == 2
    assert _host().source == fresh.source and compiles.calls == 2
    stats = loops.loops_disk_cache_stats()
    assert stats["corrupt"] == base["corrupt"] + 1
    assert stats["host_hits"] == base["host_hits"] + 1
    _same_run(_steps("numpy-steady"), _uncached("numpy-steady"))


@pytest.mark.skipif(not _compiled(), reason="no compiled loop tier")
@pytest.mark.parametrize("scheme", SCHEMES)
def test_numba_and_virtual_gpu_share_one_step(cache_dir, monkeypatch,
                                              scheme):
    """A cold cache that runs ``numba`` and then ``virtual_gpu`` holds
    one host program and one ``.so``: both paths take one step
    (``loops.plan_step``), so the second builds and loads nothing."""
    monkeypatch.setattr(runtime, "_NP_KERNEL_CACHE", {})
    base = loops.loops_disk_cache_stats()
    sims = []
    for backend in ("numba", "virtual_gpu"):
        sim = RoomSimulation(SimConfig(
            room=Room(Grid3D(12, 10, 8), BoxRoom()), scheme=scheme,
            backend=backend))
        sim.add_impulse("center")
        sim.run(3)
        sims.append(sim)
    numba, vgpu = sims
    assert numba._step is vgpu._step
    assert numba._step.source == vgpu._step.source
    assert len(list(cache_dir.glob("*.so"))) == 1
    assert len(list(cache_dir.glob("host-*.pkl"))) == 1
    assert not list(cache_dir.glob("lowered-*.pkl"))
    stats = loops.loops_disk_cache_stats()
    if numba._step.tier == "cc":
        assert (stats["misses"], stats["hits"]) == (
            base["misses"] + 1, base["hits"])
    assert (stats["host_misses"], stats["host_hits"]) == (
        base["host_misses"] + 1, base["host_hits"] + 1)
    _same_run(numba, vgpu)


# -- a failed write ---------------------------------------------------------

def _unpicklable(monkeypatch):
    def dumps(value, protocol=None):
        raise pickle.PicklingError("cannot pickle this (test)")
    monkeypatch.setattr(loops.pickle, "dumps", dumps)


def _disk_full(monkeypatch):
    real = open

    def partial(path, mode="r", *args, **kwargs):
        f = real(path, mode, *args, **kwargs)
        if "w" in mode and "b" in mode:
            f.write(b"RPK1partial")
            f.close()
            raise OSError(28, "No space left on device (test)")
        return f
    monkeypatch.setattr("builtins.open", partial)


@pytest.mark.parametrize("fault", [_unpicklable, _disk_full])
def test_a_failed_write_stores_nothing_and_fails_nothing(cache_dir,
                                                         monkeypatch, fault):
    """Any exception while writing an artifact means "nothing stored":
    the built value is returned and no temp file is left."""
    fault(monkeypatch)
    built = loops.cached_build("host", ("t",), host_io.BUILDERS,
                               lambda: ["value"], count=len,
                               portable=list)
    monkeypatch.undo()
    assert built == ["value"]
    assert list(cache_dir.iterdir()) == []


@pytest.mark.parametrize("backend", ["numpy-steady", "virtual_gpu"])
def test_a_failed_write_does_not_fail_the_constructor(cache_dir,
                                                      monkeypatch, backend):
    _unpicklable(monkeypatch)
    sim = RoomSimulation(SimConfig(room=Room(Grid3D(12, 10, 8), BoxRoom()),
                                   scheme="fd_mm", backend=backend))
    sim.add_impulse("center")
    sim.run(2)
    assert not list(cache_dir.glob("*.pkl"))
    assert not list(cache_dir.glob(".*"))
