"""Compiled fused-loop emitter for the arena program IR.

:func:`compile_step` is the second executable consumer of the
backend-neutral :class:`~repro.lift.codegen.arena.ArenaProgram` (the
first is the NumPy-steady emitter, which simply ``exec``-compiles
``program.render()``).  It lowers each program's straight-line
three-address ops to one fused per-element loop body — every slot
becomes a scalar local, every shift/take an indexed load, every store an
indexed write — and runs the bodies in one parallel loop over blocks of
the grid, compiled through the best available tier.  It lowers flat
``_gid`` programs only — the four the simulation runs
(``fi_fused_flat``, ``volume_kernel`` and the two boundary kernels) —
and declines every other program
(:meth:`ArenaProgram.loop_opaque_reasons`: const / pad slots, rank-3
windows, whole-buffer stores) with :class:`LoopsUnsupported`, which the
virtual runtime answers by running that launch on the NumPy-steady
emitter.  So a compiled loop keeps nothing between calls.  The tiers:

* ``numba`` — ``njit(parallel=True, fastmath=False)`` over a ``prange``
  of blocks (one Z-plane of ``NxNy`` points per block, matching the
  Devito-style tiled-stencil playbook);
* ``cc``    — generated C, the block loop under one OpenMP pragma, built
  with ``cc -O2 -ffp-contract=off -fwrapv`` (``_CC_FLAGS``: no fastmath,
  no FMA contraction — IEEE semantics identical to NumPy's per-op loops)
  plus the best rung of ``_CC_LADDER`` the compiler accepts, and loaded
  through :mod:`ctypes`.  The first rung is what makes GCC *vectorise*
  the main sweep (``-ftree-vectorize -fvect-cost-model=dynamic
  -fno-tree-sink``, with OpenMP-static when the compiler has it): at
  ``-O2`` or ``-O3`` alone its sink pass moves the loads feeding a
  select's arm behind the select's test and the vectoriser reports
  ``not vectorized: control flow in loop``.  Every build names the CPU's
  x86-64 psABI level (:func:`_cc_isa`): 4–8 doubles per instruction
  instead of SSE2's 2, and with no contraction the same bits at any
  width.  A compiler that rejects a rung takes the next (vector flags,
  then OpenMP, dropped), and one that rejects the level walks the ladder
  again without it; both are found once per compiler and CPU — a probe
  build whose result is recorded in the artifact cache, so a process
  that compiles nothing runs no compiler — and recorded on the kernel
  (``StepKernel.cc_rung`` / ``cc_isa``) and in
  ``loops_disk_cache_stats()``;
* ``python`` — the numba source interpreted with ``prange = range``;
  exact but slow, a debugging/test tier that is never auto-selected.

Bit-identity strategy — *every slot typed before anything runs*:
:func:`_slot_dtypes` walks the program once per argument-dtype set and
lets NumPy name each slot's dtype by applying the op's own NumPy
operation to one-element stand-ins of its operands (scalar operands
keep their call-time values, so weak-scalar promotion is NumPy's, on
whichever NumPy is installed).  Codegen then emits every operation with
its operands explicitly cast to that dtype, so the compiled loop
performs the same IEEE operation at the same width as NumPy's ufunc
inner loops — from the first call on; no other emitter ever runs on a
compiled loop's behalf.  Negative affine offsets reproduce fancy
indexing's wraparound (``index += size`` when negative) the way
:meth:`Workspace.shift` does — by splitting the sweep, not by testing
every element: ``_i + offset`` can only be negative for ``_i`` below the
largest ``-offset``, so every program's loop is emitted as a serial
*head* below ``_hd`` whose shifted loads carry the wrap test and a
*main sweep* from ``_hd`` on whose shifted loads are plain
``base[_i + offset]``, each clamped to the block.  The host computes
``_hd`` per call from the offsets it range-checks anyway;
data-dependent ``take`` / indexed-store indices keep their wrap test in
both.

Fusing a whole program into one pass over the grid reorders stores of
element *i* before loads of element *j > i*.  That is value-preserving
here because the lowering only gathers from written arrays at the
element's own locations (boundary index sets are owner-partitioned and
injective by construction) — pinned process-wide by the cross-backend
bit-identity matrix in ``tests/acoustics/test_backend_matrix.py``.

:func:`compile_step` fuses two programs — a sweep and the boundary
program that follows it — into one step, and writes the sweep's output
over the sweep's ``prev`` (two time levels instead of three).  The step
is one parallel loop over Z-plane blocks of ``NxNy`` points that, per
block, saves the old ``prev`` at its boundary points (``_pb``;
``boundaryIndices`` ascends, so a block owns a contiguous run of
ordinals, ``_kb``), sweeps the block in place and updates its boundary
points.  That is value-preserving because the sweep reads ``prev`` only
at its own element and before storing it there, and the boundary
program reads ``prev`` only at its boundary point — served from ``_pb``
— and the sweep's output only at that point, already swept; no block
writes an element another block reads.  :func:`_step_links` checks
exactly that and refuses every other access of the overwritten array.
The FD-MM branch velocity is overwritten alike (:func:`_velocity_in_place`).
``compile_step(..., tier="numpy")`` runs the same schedule on whole
arrays, with no compiler: save ``prev`` at every boundary point, sweep
with ``out=prev``, then the boundary program with its gather of ``prev``
rewritten to read the saved values (:func:`_saved_gather`).

:func:`compile_launch` is the same loop over one program with nothing
renamed and nothing saved: the executable of one launch of the virtual
runtime's launch-by-launch ``execute()``.
"""
from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import hashlib
import os
import pickle
import shutil
import sys
import tempfile
import threading
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .arena import (AliasOp, ArenaProgram, CastOp, GidOp, IndexStoreOp,
                    ScalarOp, ShiftOp, SliceStoreOp, TakeOp, UfuncOp, WhereOp,
                    Workspace, _strip)
from .bounds import IndexCheck

__all__ = ["LoopsUnsupported", "StepKernel", "available_tiers",
           "cached_build", "compile_launch", "compile_step",
           "loops_cache_dir", "loops_disk_cache_stats", "plan_step",
           "select_tier", "set_loops_cache_dir"]


class LoopsUnsupported(RuntimeError):
    """The fused-loop emitter cannot realise this program here: the
    program is loop-opaque, or no compiled tier exists on this host.
    The virtual runtime then runs a launch on its NumPy kernel;
    ``backend="numba"``, the one explicit request, raises it."""


# --- tier discovery ---------------------------------------------------------

_TIERS = ("numba", "cc", "python")
_cc_state: dict = {}


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
        return True
    except Exception:
        return False


def _cc_path() -> str | None:
    """The C compiler this process builds with (``None`` without one),
    resolved once per process.

    The first of ``$CC``, ``cc``, ``gcc`` and ``clang`` on ``PATH`` is
    the candidate.  Its rung and psABI level come from the probe record
    that an earlier process left in the artifact cache for this very
    compiler and CPU (:func:`_cc_probe_record`), which costs no process.
    Without a matching record, or with the cache disabled, they come
    from :func:`_cc_probe`, a real compile-and-load round trip.

    A record only names which artifacts to load; it never stands in for
    a compiler.  Before anything is compiled, :func:`_cc_build` runs this
    process's own probe, so a missing or broken compiler still fails
    loudly wherever one is needed."""
    if "path" not in _cc_state:
        path = next((shutil.which(c) for c in
                     (os.environ.get("CC"), "cc", "gcc", "clang")
                     if c and shutil.which(c)), None)
        rung = isa = None
        try:
            record = path and _cc_probe_record(path)
            if record:
                with open(record, encoding="ascii") as f:
                    rung, isa = f.read().split()
        except (OSError, UnicodeDecodeError, ValueError):
            pass                  # no record: probe below
        if rung in _CC_LADDER and isa in (_cc_isa(), "None"):
            _cc_state.update(path=path, rung=rung,
                             isa=None if isa == "None" else isa)
        elif path is not None:
            _cc_probe(path)
        else:
            _cc_state.update(path=None, rung=None, isa=None)
    return _cc_state["path"]


def _cc_probe(path: str) -> str | None:
    """This process's compile-and-load round trip with compiler ``path``:
    walk :data:`_CC_LADDER` at the CPU's psABI level, then without it,
    keep the first ``(rung, level)`` that builds, and record it beside
    the artifacts (tmp file and atomic rename, like them) for the next
    process.  ``None`` when no rung builds."""
    rung = isa = None
    for build in [(r, level) for level in dict.fromkeys((_cc_isa(), None))
                  for r in _CC_LADDER]:
        try:
            lib = _cc_build(path, "void repro_loop_probe(void) {}\n",
                            "probe", cache=False, build=build)
            getattr(lib, "repro_loop_probe")
            rung, isa = build
            break
        except Exception:
            continue
    _cc_state.update(path=path if rung else None, rung=rung, isa=isa,
                     probed=True)
    try:
        record = rung and _cc_probe_record(path)
        if record:
            os.makedirs(os.path.dirname(record), exist_ok=True)
            _write_atomic(record, f"{rung} {isa}".encode("ascii"))
    except OSError:
        pass                      # cache dir unusable: probe next time too
    return rung


def _cc_built() -> tuple[str | None, str | None]:
    """The rung of :data:`_CC_LADDER` and the psABI level this process's
    C compiler builds with (``None`` without a working compiler; a
    ``None`` level is its baseline): the first pair the probe could
    compile, link and load, read from its record or probed here."""
    if not _cc_path():
        return None, None
    return _cc_state["rung"], _cc_state["isa"]


def omp_set_threads(n: int) -> None:
    """Cap the OpenMP team of the calling thread's later cc-tier calls at
    ``n`` threads (``omp_set_num_threads`` sets the calling thread's
    own setting); a no-op unless the process builds with OpenMP through
    libgomp."""
    if "openmp" not in (_cc_built()[0] or ""):
        return
    try:
        ctypes.CDLL("libgomp.so.1").omp_set_num_threads(ctypes.c_int(n))
    except (OSError, AttributeError):
        pass


#: The CPU feature flags (as Linux names them) of each x86-64 psABI level
#: the cc tier builds at, widest first; ``pni`` is SSE3 and ``abm`` LZCNT.
_PSABI_V3 = {"cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2",
             "ssse3", "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm",
             "movbe", "xsave"}
_PSABI = (("x86-64-v4", _PSABI_V3 | {"avx512f", "avx512bw", "avx512cd",
                                     "avx512dq", "avx512vl"}),
          ("x86-64-v3", _PSABI_V3))


@functools.cache
def _cc_isa(cpuinfo: str = "/proc/cpuinfo") -> str | None:
    """The widest x86-64 psABI level this CPU implements, read off the
    first ``flags`` line of ``cpuinfo`` without starting a process;
    ``None`` (the compiler's baseline) below v3 and wherever no x86
    flags are reported there.  Never ``native``: gcc 12's
    ``sapphirerapids`` tuning stops vectorising the double sweep."""
    try:
        with open(cpuinfo, encoding="ascii", errors="replace") as f:
            flags = next((ln.partition(":")[2].split() for ln in f
                          if ln.startswith("flags")), [])
    except OSError:
        return None
    return next((level for level, need in _PSABI if need <= set(flags)),
                None)


def _cc_flags(build: tuple | None = None) -> tuple[str, ...]:
    """The flags of a ``(rung, level)`` build, by default this
    process's: :data:`_CC_FLAGS`, ``-march=<level>``, the rung's own."""
    rung, isa = build or _cc_built()
    return (*_CC_FLAGS, *([f"-march={isa}"] if isa else []),
            *_CC_LADDER[rung])


# -- on-disk compiled-artifact cache -----------------------------------------
#
# The cc tier builds a shared object per (program, dtype set).  Without a
# persistent cache every *process* pays that compile — painful for the
# gateway's worker-process pool, where N workers would each recompile the
# same four hot kernels at first touch.  Artifacts are content-addressed
# by a hash of (generated C source, compiler identity, flag set), so a
# stale hit is impossible: change anything that could change the code and
# the key changes with it.  The probe record (``cc-probe-<key>.txt``,
# the rung and psABI level a compiler's probe found) lives beside them
# under a key of the compiler identity, the base flags, the ladder and
# the CPU's level, so two CPUs sharing the directory never share one.

_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")
#: What makes GCC vectorise the main sweep.  ``-O2`` alone never does:
#: its ``tree-sink`` pass moves the loads that feed a select's taken arm
#: behind the select's test, and the vectoriser then reports ``not
#: vectorized: control flow in loop``; the dynamic cost model admits the
#: runtime alias check the pointer arguments need.  The width of its
#: vectors is the psABI level's (:func:`_cc_flags`); element-wise IEEE
#: operations with no contraction, so results do not move with it.
_CC_VECTOR_FLAGS = ("-ftree-vectorize", "-fvect-cost-model=dynamic",
                    "-fno-tree-sink")
#: Flag sets on top of :data:`_CC_FLAGS`, best first.  A compiler that
#: rejects a rung (clang refuses ``-fvect-cost-model=``; a gcc without
#: libgomp fails to link ``-fopenmp``) takes the next one; the probe
#: (:func:`_cc_probe`) runs at most once per process and every kernel
#: is built with the rung and level it found (:func:`_cc_built`).
_CC_LADDER = {"vector+openmp": (*_CC_VECTOR_FLAGS, "-fopenmp"),
              "vector": _CC_VECTOR_FLAGS,
              "openmp": ("-fopenmp",),
              "plain": ()}
#: {"dir": str|None, "hits", "misses" (``.so`` files), "host_hits",
#: "host_misses" (host programs), "corrupt" (artifacts of either kind
#: that failed their check): int}
_disk_cache: dict = {}


def _resolve_cache_dir() -> str | None:
    env = os.environ.get("REPRO_LOOPS_CACHE_DIR")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "disabled"):
            return None
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "loops")


def loops_cache_dir() -> str | None:
    """The on-disk compiled-artifact cache directory (None = disabled).

    Resolution order: ``REPRO_LOOPS_CACHE_DIR`` (set it to ``off`` to
    disable, or to a path to relocate), else ``$XDG_CACHE_HOME/repro/
    loops``, else ``~/.cache/repro/loops``.  The numba tier's own disk
    cache is pointed at ``<dir>/numba`` (via ``NUMBA_CACHE_DIR``, unless
    the caller already set one).

    Two kinds of artifact live there: the cc tier's ``.so`` files (with
    their ``.c`` source, the ``.sha256`` digest recorded at build and the
    compiler's probe record), and the compiled Listing-5 host programs
    of :func:`repro.acoustics.host_io.host_program` (``host-*.pkl``,
    :func:`cached_build`), whose launches every LIFT backend steps.  A
    ``.so`` is loaded only once its bytes match its digest, a pickle
    unpickled only once its frame (magic, length, SHA-256) checks; one
    that fails is built again and counted as ``corrupt``.  The check
    covers accidental corruption, not a hostile writer, who can write a
    digest too: as both kinds run code in the process, the directory
    must be writable only by whoever may run code as its user.
    """
    if "dir" not in _disk_cache:
        _disk_cache.update(dir=_resolve_cache_dir(), hits=0, misses=0,
                           host_hits=0, host_misses=0, corrupt=0)
    return _disk_cache["dir"]


def set_loops_cache_dir(path) -> None:
    """Relocate (or with ``None`` disable) the on-disk artifact cache
    for this process; counters keep accumulating across the switch.
    The steps :func:`plan_step` remembers are forgotten with it, so the
    next ones load from, or build into, the new cache."""
    loops_cache_dir()
    _disk_cache["dir"] = None if path is None else os.fspath(path)
    _PLAN_STEPS.clear()


def loops_disk_cache_stats() -> dict:
    """Hit/miss counters and entry count of the on-disk ``.so`` cache,
    how many compiled host programs it served and how many were
    compiled because it had none (``host_hits`` / ``host_misses``:
    :func:`repro.acoustics.host_io.host_program`), how many artifacts of
    either kind failed their check and were built again (``corrupt``),
    the flag-ladder rung and psABI level (``cc_isa``) its artifacts are
    built with (``None`` until a cc-tier kernel resolved the process's
    compiler), and ``probed``: whether this process ran the compiler's
    probe round trip, which a process that only loads cached artifacts
    never does; surfaced through
    :func:`repro.gpu.runtime.kernel_cache_stats`."""
    d = loops_cache_dir()
    entries = 0
    if d is not None and os.path.isdir(d):
        entries = sum(1 for f in os.listdir(d) if f.endswith(".so"))
    return {"dir": d, "enabled": d is not None,
            "hits": _disk_cache["hits"], "misses": _disk_cache["misses"],
            "host_hits": _disk_cache["host_hits"],
            "host_misses": _disk_cache["host_misses"],
            "corrupt": _disk_cache["corrupt"],
            "entries": entries, "cc_rung": _cc_state.get("rung"),
            "cc_isa": _cc_state.get("isa"),
            "probed": _cc_state.get("probed", False)}


def _cc_identity(cc: str) -> tuple[str, ...]:
    """Which compiler ``cc`` is: the name it runs under, the file that
    name resolves to, and that file's size and modification time.  An
    in-place upgrade, or another host's compiler sharing the cache
    directory, changes every key derived from it.  Raises ``OSError``
    when the file is gone."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    return (cc, real, str(st.st_size), str(st.st_mtime_ns))


def _key(*parts: str) -> str:
    """The name every disk-cache artifact is stored under: a hash of
    what made it."""
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


def _cc_key(cc: str, *parts: str) -> str:
    """The cache key of something compiler ``cc`` made from ``parts``:
    an artifact (flags, source) or the probe record (base flags,
    ladder, CPU level)."""
    return _key("v2", *_cc_identity(cc), *parts)


def _cc_probe_record(cc: str) -> str | None:
    """Where the probe record of compiler ``cc`` lives (``None`` with the
    disk cache disabled)."""
    cdir = loops_cache_dir()
    if cdir is None:
        return None
    key = _cc_key(cc, "probe", repr(_CC_FLAGS), repr(_CC_LADDER),
                  repr(_cc_isa()))
    return os.path.join(cdir, f"cc-probe-{key}.txt")


_build_dir: list = []
_build_seq = [0]


def _cc_workdir() -> str:
    if not _build_dir:
        d = tempfile.mkdtemp(prefix="repro-loops-")
        _build_dir.append(d)
        atexit.register(shutil.rmtree, d, ignore_errors=True)
    return _build_dir[0]


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file beside it and
    ``os.replace``, so a reader sees the old file or the whole new one.
    Raises what the write raised, and leaves no temp file."""
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.getpid()}-{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):           # the write failed
            os.remove(tmp)


def _cc_compile(cc: str, flags: tuple, source: str, src: str, so: str):
    """Write ``source`` to ``src`` and compile it to ``so``; raises
    :class:`LoopsUnsupported` when the compiler fails.  Only a build
    imports :mod:`subprocess`: a warm process runs none."""
    import subprocess
    with open(src, "w") as f:
        f.write(source)
    r = subprocess.run([cc, *flags, src, "-o", so, "-lm"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise LoopsUnsupported(f"C compilation failed:\n{r.stderr}")


def _sha256(path: str) -> bytes:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest().encode("ascii")


def _load_checked(so: str):
    """The cached shared object ``so``, loaded only if its bytes match
    the digest :func:`_cc_build` recorded beside it (``<so>.sha256``);
    ``None`` when that digest is missing or differs, or the file does
    not load."""
    try:
        with open(so + ".sha256", "rb") as f:
            return ctypes.CDLL(so) if f.read() == _sha256(so) else None
    except OSError:
        return None


def _cc_build(cc: str, source: str, stem: str, *, cache: bool = True,
              build: tuple | None = None):
    """Compile ``source`` to a shared object and load it, with the flags
    of ``build``, a ``(rung, level)`` pair (default: the process's).

    With the disk cache enabled the artifact is content-addressed by
    (source, compiler identity, flags): a prior build — by any process —
    is dlopen'd directly, skipping the compiler entirely, once its bytes
    match the digest recorded at build (:func:`_load_checked`); one that
    does not is removed, built again and counted as ``corrupt``.  A
    build with the process's flags first makes sure this process ran its
    own probe (:func:`_cc_probe`): they may have come from a record, and
    a probe that now finds another rung or level changes the flags and
    the key.  A build is loaded from its temp file, named by process,
    stem and key (``dlopen`` hands back an object already loaded under
    the same name), before it lands in the cache via an atomic rename,
    its digest after it: a process racing another's build may find no
    digest yet and build again, but never loads a file it could not
    check, nor another's file in place of its own build.  Any
    cache-directory failure silently falls back to the per-process
    temp-dir build.
    """
    flags = _cc_flags(build)
    cdir = loops_cache_dir() if cache else None
    so = None
    if cdir is not None:
        key = _cc_key(cc, " ".join(flags), source)
        so = os.path.join(cdir, f"{stem}-{key}.so")
        if os.path.exists(so):
            lib = _load_checked(so)
            if lib is not None:
                _disk_cache["hits"] += 1
                return lib
            _disk_cache["corrupt"] += 1   # rebuilt below, maybe re-keyed
            with contextlib.suppress(OSError):
                os.remove(so)
    if build is None and not _cc_state.get("probed"):
        if _cc_probe(cc) is None:
            raise LoopsUnsupported(f"C compiler {cc} no longer builds")
        return _cc_build(cc, source, stem, cache=cache)
    if so is not None:
        try:
            os.makedirs(cdir, exist_ok=True)
            tmp = os.path.join(cdir, f".build-{os.getpid()}-{stem}-{key}.so")
            # the .c is kept beside the .so for debugging
            _cc_compile(cc, flags, source, so[:-3] + ".c", tmp)
            digest = _sha256(tmp)
            lib = ctypes.CDLL(tmp)
            os.replace(tmp, so)
            _write_atomic(so + ".sha256", digest)
            _disk_cache["misses"] += 1
            return lib
        except OSError:
            pass              # cache dir unusable: temp-dir build below
    _build_seq[0] += 1
    path = os.path.join(_cc_workdir(), f"{stem}_{_build_seq[0]}")
    _cc_compile(cc, flags, source, path + ".c", path + ".so")
    return ctypes.CDLL(path + ".so")


#: the LIFT package, whose sources every cached host program depends on
_LIFT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_source_digests: dict = {}      # builders path -> digest


def _source_digest(builders: str) -> str:
    """A digest of every ``.py`` under ``repro/lift/`` and of
    ``builders``, read once per process."""
    if builders not in _source_digests:
        paths = sorted(os.path.join(d, f) for d, _, files in os.walk(_LIFT_DIR)
                       for f in files if f.endswith(".py"))
        h = hashlib.sha1()
        for path in (*paths, builders):
            with open(path, "rb") as f:
                h.update(os.path.relpath(path, _LIFT_DIR).encode())
                h.update(f.read())
        _source_digests[builders] = h.hexdigest()
    return _source_digests[builders]


#: the frame of a pickle artifact: magic, payload length (8 bytes,
#: little-endian), SHA-256 of the payload, then the payload
_MAGIC = b"RPK1"
_HEAD = len(_MAGIC) + 8 + 32


def _frame(payload: bytes) -> bytes:
    return (_MAGIC + len(payload).to_bytes(8, "little")
            + hashlib.sha256(payload).digest() + payload)


def _unframe(data: bytes) -> bytes:
    """The payload :func:`_frame` wrapped in ``data``; raises
    ``ValueError`` when the magic, the length or the digest does not
    match it."""
    payload = data[_HEAD:]
    if (data[:4] != _MAGIC or int.from_bytes(data[4:12], "little")
            != len(payload)
            or hashlib.sha256(payload).digest() != data[12:_HEAD]):
        raise ValueError("not a framed artifact, or a damaged one")
    return payload


def cached_build(kind: str, what: tuple, builders: str, build, *,
                 count, portable):
    """What ``build()`` returns, kept in the disk cache beside the
    ``.so`` files, so a process that finds it there runs no ``build``
    and loads none of the LIFT front end ``build`` needs.

    The artifact is ``<kind>-<key>.pkl``; the key is ``kind``, ``what``
    (strings naming the value), the Python minor version, NumPy's
    version and a digest of the LIFT sources and of ``builders``, the
    module whose builders made it.  It holds ``portable(value)``,
    pickled inside a frame (:func:`_frame`) that is checked before
    anything is unpickled, written through a temp file and
    ``os.replace``.  ``count(loaded)`` is how many items a loaded
    artifact holds (0 when it is not what ``build`` returns): they count
    as ``<kind>_hits`` of :func:`loops_disk_cache_stats`, a built
    value's as ``<kind>_misses``.  A missing artifact is built; one that
    fails its frame, does not unpickle or counts 0 is built again,
    replaced and counted as ``corrupt``.  A failed write stores nothing
    and leaves no temp file; with the cache disabled every call builds
    and nothing is written.
    """
    cdir = loops_cache_dir()
    if cdir is None:
        return build()
    key = _key(kind, *what, "py%d.%d" % sys.version_info[:2],
               np.__version__, _source_digest(builders))
    path = os.path.join(cdir, f"{kind}-{key}.pkl")
    if os.path.exists(path):
        n = 0
        try:
            with open(path, "rb") as f:   # unpickles only what checked
                value = pickle.loads(_unframe(f.read()))
            n = count(value)
        except Exception:
            pass
        if n:
            _disk_cache[f"{kind}_hits"] += n
            return value
        _disk_cache["corrupt"] += 1
    value = build()
    _disk_cache[f"{kind}_misses"] += count(value)
    try:
        os.makedirs(cdir, exist_ok=True)
        _write_atomic(path, _frame(pickle.dumps(
            portable(value), protocol=pickle.HIGHEST_PROTOCOL)))
    except Exception:       # nothing stored; the built value still serves
        pass
    return value


def available_tiers() -> tuple[str, ...]:
    """The loop tiers usable in this process, best first ('python' is
    always present but never auto-selected)."""
    tiers = []
    if _numba_available():
        tiers.append("numba")
    if _cc_path():
        tiers.append("cc")
    tiers.append("python")
    return tuple(tiers)


def select_tier(requested: str | None = None) -> str:
    """Resolve a tier name.  ``None`` picks the best *compiled* tier
    (honouring ``REPRO_LOOP_TIER``) and raises :class:`LoopsUnsupported`
    when neither numba nor a C compiler is available — the interpreted
    tier is opt-in only."""
    requested = requested or os.environ.get("REPRO_LOOP_TIER") or None
    if requested is not None:
        if requested not in _TIERS:
            raise ValueError(f"unknown loop tier {requested!r}; "
                             f"expected one of {_TIERS}")
        if requested == "numba" and not _numba_available():
            raise LoopsUnsupported("numba is not importable")
        if requested == "cc" and not _cc_path():
            raise LoopsUnsupported("no working C compiler found")
        return requested
    if _numba_available():
        return "numba"
    if _cc_path():
        return "cc"
    raise LoopsUnsupported(
        "no compiled loop tier available (numba not importable, no "
        "working C compiler)")


# --- dtype utilities --------------------------------------------------------

_CTYPE = {"f8": "double", "f4": "float", "i8": "long long", "i4": "int",
          "i2": "short", "i1": "signed char", "u8": "unsigned long long",
          "u4": "unsigned int", "u1": "unsigned char", "b1": "unsigned char"}
_NPCTOR = {"f8": "np.float64", "f4": "np.float32", "i8": "np.int64",
           "i4": "np.int32", "i2": "np.int16", "i1": "np.int8",
           "u8": "np.uint64", "u4": "np.uint32", "u1": "np.uint8",
           "b1": "np.bool_"}

#: result-dtype-driven arithmetic ufuncs (operands cast to result dtype)
_ARITH = {"np.add": "+", "np.subtract": "-", "np.multiply": "*",
          "np.true_divide": "/"}
_COMPARE = {"np.equal": "==", "np.not_equal": "!=", "np.less": "<",
            "np.less_equal": "<=", "np.greater": ">",
            "np.greater_equal": ">="}
_MINMAX = {"np.minimum": "<", "np.maximum": ">"}
_UNARY = {"np.negative", "np.sqrt", "np.abs"}


def _code(dt: np.dtype) -> str:
    c = dt.str.lstrip("<>|=")
    if c not in _CTYPE:
        raise LoopsUnsupported(f"unsupported dtype {dt} in loop emitter")
    return c


# --- codegen ---------------------------------------------------------------


class _Gen:
    """Shared lowering state: one pass over the ops produces the loop
    body for the wraparound head (below ``_hd``) and for the main sweep
    (from ``_hd`` on) — each line as a (python/numba, C) pair — plus the
    host-prologue plan.  The two bodies differ only in the affine loads
    (:meth:`indexed_load`).

    A program lowered into a step (:func:`compile_step`) shares one
    function with another: ``names`` renames array parameters (the
    sweep's ``out`` is the ``prev`` it overwrites), ``prefix`` keeps its
    scalar arguments and slot locals apart, and ``saved`` lowers a
    gather ``(array, index slot)`` to a token instead (``_pb[_i]``, the
    value saved before the sweep overwrote it)."""

    def __init__(self, program: ArenaProgram, dt: dict, scalar_dt: dict,
                 names: dict | None = None, prefix: str = "",
                 saved: dict | None = None):
        self.prog = program
        self.dt = dt                  # name -> np.dtype (slots + arrays)
        self.scalar_dt = scalar_dt    # scalar-arg expr -> np.dtype
        self.names = names or {}      # array parameter -> source token
        self.prefix = prefix
        self.saved = saved or {}      # (array, index slot) -> token
        self.local: dict[str, str] = {}      # slot -> loop token (py == C)
        self.used_arrays: list[str] = []     # kernel array-argument order
        self.sizes: list[str] = []           # arrays needing a _sz_ arg
        self.scal_args: dict[str, str] = {}  # expr -> arg token
        self.head: list[tuple] = []          # (py line, C line | None)
        self.main: list[tuple] = []
        self.c_invariants: dict[str, str] = {}   # C declaration -> token

    # -- operand resolution ------------------------------------------

    def arr(self, name: str) -> str:
        """The source token of array parameter ``name``."""
        return self.names.get(name, name)

    def _use_array(self, name: str) -> None:
        if name not in self.used_arrays:
            self.used_arrays.append(name)

    def _need_size(self, name: str) -> str:
        if name not in self.sizes:
            self.sizes.append(name)
        return f"_sz_{self.arr(name)}"

    def scal(self, expr: str) -> tuple[str, np.dtype]:
        tok = self.scal_args.get(expr)
        if tok is None:
            tok = f"_{self.prefix}s{len(self.scal_args)}"
            self.scal_args[expr] = tok
        return tok, self.scalar_dt[expr]

    def operand(self, expr: str) -> tuple[str, np.dtype, bool]:
        """Resolve an operand expression to (token, dtype, is_scalar_arg).
        The token is valid in both the python and the C body."""
        s = _strip(expr)
        tok = self.local.get(s)
        if tok is not None:
            return tok, self.dt[s], False
        tok, dt = self.scal(expr)
        return tok, dt, True

    def cast(self, expr: str, to: np.dtype) -> tuple[str, str]:
        """Python and C tokens for the operand cast to ``to``.  In C a
        scalar argument is converted once, before the loops: inside a
        select's arm the conversion would be control flow to the
        vectoriser (a float conversion may trap)."""
        tok, dt, is_scalar = self.operand(expr)
        if dt == to:
            return tok, tok
        c = _code(to)
        py, cc = f"{_NPCTOR[c]}({tok})", f"({_CTYPE[c]})({tok})"
        if is_scalar:
            cc = self.c_invariants.setdefault(
                f"const {_CTYPE[c]} {tok}_{c} = {cc};", f"{tok}_{c}")
        return py, cc

    # -- emission ------------------------------------------------------

    def line(self, py: str, c: str | None, into=None) -> None:
        for body in into or (self.head, self.main):
            body.append((py, c))

    def assign(self, name: str, py_rhs: str, c_rhs: str, into=None) -> None:
        c = _code(self.dt[name])
        tok = self.local[name] = self.prefix + name
        self.line(f"{tok} = {py_rhs}", f"{_CTYPE[c]} {tok} = {c_rhs};",
                  into)

    def wrapped_index(self, base: str, py_idx: str, c_idx: str,
                      into=None) -> None:
        """``_j`` = the index into ``base``, wrapped the way fancy
        indexing wraps a negative one."""
        sz = self._need_size(base)
        self.line(f"_j = {py_idx}", f"_j = {c_idx};", into)
        self.line("if _j < 0:", f"if (_j < 0) _j += {sz};", into)
        self.line(f"    _j += {sz}", None, into)

    def indexed_load(self, name: str, base: str, py_idx: str,
                     c_idx: str, *, affine: bool = False) -> None:
        """Load ``base[index]`` with wraparound.  An ``affine`` index is
        ``_i`` plus a loop-invariant offset, negative only for ``_i``
        below the head bound the host passes as ``_hd``: the head keeps
        the wrap test, the main sweep loads ``base[index]`` directly."""
        self._use_array(base)
        wrapping = (self.head,) if affine else None
        self.wrapped_index(base, py_idx, c_idx, wrapping)
        a = self.arr(base)
        self.assign(name, f"{a}[_j]", f"{a}[_j]", wrapping)
        if affine:
            self.assign(name, f"{a}[{py_idx}]", f"{a}[{c_idx}]",
                        (self.main,))


def _result_type(gen: _Gen, args: tuple, values: dict):
    """NumPy promotion over the operands, with python-scalar weak
    semantics (``np.result_type`` accepts values)."""
    reps = []
    for a in args:
        s = _strip(a)
        if s in gen.local:
            reps.append(gen.dt[s])
        else:
            reps.append(values[a])
    return np.result_type(*reps)


def _lower_ops(gen: _Gen, scalar_values: dict) -> None:
    for op in gen.prog.ops:
        if isinstance(op, GidOp):
            gen.local[op.name] = "_i"      # the loop variable
            continue
        if isinstance(op, ScalarOp):
            continue                       # host prologue
        if isinstance(op, AliasOp):
            src = _strip(op.src)
            if src not in gen.local:
                raise LoopsUnsupported(f"alias of non-vector {op.src!r}")
            gen.assign(op.name, gen.local[src], gen.local[src])
            continue
        if isinstance(op, ShiftOp):
            off, _dt = gen.scal(op.offset)
            gen.indexed_load(op.name, op.base, f"_i + {off}",
                             f"_i + {off}", affine=True)
            continue
        if isinstance(op, TakeOp):
            idx = _strip(op.index)
            if idx not in gen.local:
                raise LoopsUnsupported(f"take index {op.index!r} is not "
                                       "a vector slot")
            saved = gen.saved.get((op.base, idx))
            if saved is not None:
                gen.assign(op.name, saved, saved)
                continue
            tok = gen.local[idx]
            gen.indexed_load(op.name, op.base, tok, f"(long long)({tok})")
            continue
        if isinstance(op, UfuncOp):
            _lower_ufunc(gen, op, scalar_values)
            continue
        if isinstance(op, WhereOp):
            to = gen.dt[op.name]
            cond, _cdt, _ = gen.operand(op.cond)
            tp, tc = gen.cast(op.if_true, to)
            fp, fc = gen.cast(op.if_false, to)
            gen.assign(op.name, f"{tp} if {cond} else {fp}",
                       f"({cond}) ? {tc} : {fc}")
            continue
        if isinstance(op, CastOp):
            to = gen.dt[op.name]
            tok, _dt, _ = gen.operand(op.value)
            c = _code(to)
            gen.assign(op.name, f"{_NPCTOR[c]}({tok})",
                       f"({_CTYPE[c]})({tok})")
            continue
        if isinstance(op, SliceStoreOp):
            gen._use_array(op.target)
            start, _dt = gen.scal(op.start)
            vp, vc = gen.cast(op.value, gen.dt[op.target])
            a = gen.arr(op.target)
            gen.line(f"{a}[{start} + _i] = {vp}", f"{a}[{start} + _i] = {vc};")
            continue
        if isinstance(op, IndexStoreOp):
            idx = _strip(op.index)
            if idx not in gen.local:
                raise LoopsUnsupported(f"store index {op.index!r} is not "
                                       "a vector slot")
            gen._use_array(op.target)
            tok = gen.local[idx]
            vp, vc = gen.cast(op.value, gen.dt[op.target])
            gen.wrapped_index(op.target, tok, f"(long long)({tok})")
            a = gen.arr(op.target)
            gen.line(f"{a}[_j] = {vp}", f"{a}[_j] = {vc};")
            continue
        raise LoopsUnsupported(f"op {type(op).__name__} has no loop "
                               f"lowering: {op.render()}")


def _lower_ufunc(gen: _Gen, op: UfuncOp, values: dict) -> None:
    uf = op.ufunc
    if uf in _ARITH:
        to = gen.dt[op.name]
        (ap, ac), (bp, bc) = (gen.cast(a, to) for a in op.args)
        sym = _ARITH[uf]
        if sym == "/" and to.kind != "f":
            raise LoopsUnsupported("integer true_divide")
        gen.assign(op.name, f"{ap} {sym} {bp}", f"{ac} {sym} {bc}")
        return
    if uf in _COMPARE:
        to = _result_type(gen, op.args, values)
        (ap, ac), (bp, bc) = (gen.cast(a, to) for a in op.args)
        sym = _COMPARE[uf]
        gen.assign(op.name, f"{ap} {sym} {bp}", f"{ac} {sym} {bc}")
        return
    if uf in _MINMAX:
        # NaN-propagating, like np.minimum / np.maximum
        to = gen.dt[op.name]
        (ap, ac), (bp, bc) = (gen.cast(a, to) for a in op.args)
        sym = _MINMAX[uf]
        gen.assign(
            op.name,
            f"({ap} if {ap} != {ap} else ({bp} if {bp} != {bp} "
            f"else ({ap} if {ap} {sym} {bp} else {bp})))",
            f"({ac} != {ac} ? {ac} : ({bc} != {bc} ? {bc} : "
            f"({ac} {sym} {bc} ? {ac} : {bc})))")
        return
    if uf in _UNARY:
        to = gen.dt[op.name]
        vp, vc = gen.cast(op.args[0], to)
        c = _code(to)
        if uf == "np.negative":
            gen.assign(op.name, f"-({vp})", f"-({vc})")
        elif uf == "np.sqrt":
            fn = "sqrtf" if c == "f4" else "sqrt"
            gen.assign(op.name, f"np.sqrt({vp})", f"{fn}({vc})")
        else:
            fn = {"f4": "fabsf", "f8": "fabs"}.get(c, "llabs")
            gen.assign(op.name, f"np.abs({vp})",
                       f"({_CTYPE[c]}){fn}({vc})")
        return
    raise LoopsUnsupported(f"ufunc {uf} has no loop lowering")


# --- specialisation --------------------------------------------------------


def _scalar_names(prog: ArenaProgram) -> list[str]:
    return ([p for p in prog.param_names if p not in prog.array_params]
            + list(prog.size_params))


def _host_env(prog: ArenaProgram, bound: dict) -> dict:
    return {n: bound[n] for n in _scalar_names(prog)}


def _slot_dtypes(prog: ArenaProgram, bound: dict) -> tuple[dict, dict]:
    """Type the program before it runs: one forward pass over the ops.

    Returns ``(slot name -> dtype, scalar operand expr -> value)``.
    ``_gid`` is ``np.arange``'s dtype; gathers (shift / take / alias)
    take their base's dtype, a cast its declared one; every ``ufunc`` /
    ``where`` applies *its own NumPy operation* to ``np.ones(1, dtype)``
    stand-ins of its vector operands and the call-time values of its
    scalar operands — so NumPy decides every result dtype, weak Python
    scalars included, and no array argument's data is read.  The values
    are kept because codegen needs each scalar operand's dtype and
    ``np.result_type`` its weak-scalar semantics.
    """
    glb = {"np": np}
    env = _host_env(prog, bound)
    dt = {p: np.asarray(bound[p]).dtype for p in prog.array_params}
    if prog.returns_out:
        dt["out"] = np.asarray(bound["out"]).dtype
    values: dict[str, object] = {}

    def arg(expr: str):
        s = _strip(expr)
        if s in prog.vec:
            return np.ones(1, dt[s])
        if expr not in values:
            values[expr] = eval(expr, glb, env)  # noqa: S307
        return values[expr]

    for op in prog.ops:
        if isinstance(op, ScalarOp):
            env[op.name] = eval(op.expr, glb, env)  # noqa: S307
        elif isinstance(op, GidOp):
            dt[op.name] = np.arange(1).dtype
        elif isinstance(op, AliasOp):
            src = _strip(op.src)
            if src in dt:
                dt[op.name] = dt[src]
        elif isinstance(op, (ShiftOp, TakeOp)):
            dt[op.name] = dt[op.base]
            if isinstance(op, ShiftOp):
                arg(op.offset)
        elif isinstance(op, CastOp):
            arg(op.value)
            dt[op.name] = np.dtype(eval(op.dtype, glb))  # noqa: S307
        elif isinstance(op, UfuncOp):
            uf = eval(op.ufunc, glb)  # noqa: S307
            dt[op.name] = uf(*map(arg, op.args)).dtype
        elif isinstance(op, WhereOp):
            dt[op.name] = np.where(arg(op.cond), arg(op.if_true),
                                   arg(op.if_false)).dtype
        elif isinstance(op, SliceStoreOp):
            arg(op.start)
            arg(op.value)
        elif isinstance(op, IndexStoreOp):
            arg(op.value)
    return dt, values


@dataclass
class _Spec:
    """The host plan of one program's launch (per argument-dtype set)."""

    size_arrays: list[str]
    scal_items: list              # (expr code, 'f'|'i') in arg order
    scalarop_items: list          # (name, code) in program order
    shift_checks: list            # (offset code, n code, base name)
    n_code: object
    index_check: IndexCheck       # data-dependent index ranges


def _lower(prog: ArenaProgram, bound: dict,
           **gen_kw) -> tuple[_Gen, _Spec]:
    """Type ``prog`` for the arguments ``bound`` and lower it: the loop
    bodies are on the returned generator, the host plan of a launch in
    the spec."""
    dt, values = _slot_dtypes(prog, bound)
    scalar_dt = {e: np.asarray(v).dtype for e, v in values.items()}
    gen = _Gen(prog, dt, scalar_dt, **gen_kw)
    _lower_ops(gen, values)

    def cc(expr):
        return compile(expr, "<loop host>", "eval")

    return gen, _Spec(
        size_arrays=list(gen.sizes),
        scal_items=[(cc(e), "i" if scalar_dt[e].kind in "iub" else "f")
                    for e in gen.scal_args],
        scalarop_items=[(op.name, cc(op.expr)) for op in prog.ops
                        if isinstance(op, ScalarOp)],
        shift_checks=[(cc(op.offset), cc(op.n), op.base) for op in prog.ops
                      if isinstance(op, ShiftOp)],
        n_code=cc(prog.gid_ops()[0].n), index_check=IndexCheck(prog))


def _scalar_ctype(kind: str):
    """The ctypes type a scalar argument of kind ``'i'`` / ``'f'`` is
    passed as (``long long`` / ``double`` in the generated C)."""
    return ctypes.c_longlong if kind == "i" else ctypes.c_double


def _load_c(source: str, stem: str, symbol: str, argtypes: list):
    fn = getattr(_cc_build(_cc_path(), source, stem), symbol)
    fn.argtypes = argtypes
    fn.restype = None
    return fn


def _load_python(source: str, tier: str, label: str, symbol: str):
    """Execute a python rendering; on the numba tier, jit it with
    ``prange`` as numba's, elsewhere ``prange`` is ``range``."""
    ns: dict = {"np": np}
    if tier == "numba":
        cdir = loops_cache_dir()
        if cdir is not None:
            # point numba's own disk cache alongside ours so worker
            # processes share whatever it can persist
            os.environ.setdefault("NUMBA_CACHE_DIR",
                                  os.path.join(cdir, "numba"))
        from numba import njit, prange
        ns["prange"] = prange
    else:
        ns["prange"] = range
    exec(compile(source, f"<loops:{label}>", "exec"), ns)
    fn = ns[symbol]
    if tier == "numba":
        fn = njit(parallel=True, fastmath=False)(fn)
    return fn


def _loop_body(lines: list, col: int, indent: str) -> list:
    """One loop's body in the python (``col`` 0) or C (1) rendering;
    ``_j`` is declared only where a wrap test uses it."""
    body = [ln[col] for ln in lines if ln[col] is not None]
    if any(ln.startswith("_j = ") for ln in body):
        body.insert(0, ("_j = 0", "long long _j = 0;")[col])
    return [indent + ln for ln in body]


# --- the host side of a launch ----------------------------------------------


def _call_names(prog: ArenaProgram) -> list[str]:
    """A program's call signature: parameters, sizes, then ``out``."""
    return (list(prog.param_names) + list(prog.size_params)
            + (["out"] if prog.returns_out else []))


def _dtype_key(prog: ArenaProgram, bound: dict) -> tuple:
    """What a specialisation depends on: every argument's dtype, and for
    a scalar whether it is a weak Python one."""
    key = []
    for n in _call_names(prog):
        v = bound[n]
        if n in prog.array_params or n == "out":
            key.append(np.asarray(v).dtype.str)
        else:
            key.append((np.asarray(v).dtype.str,
                        type(v) in (int, float, bool)))
    return tuple(key)


@dataclass
class _Args:
    """One launch's arguments, evaluated and checked by :func:`_prologue`."""

    arrays: dict                  # array argument -> ndarray
    sizes: dict                   # array -> length, for the wrap tests
    scalars: list                 # values, in ``_Spec.scal_items`` order
    env: dict                     # scalar arguments and ScalarOp values
    n: int
    hd: int                       # head bound: shifts may wrap below it


def _prologue(prog: ArenaProgram, spec: _Spec, bound: dict) -> _Args:
    """Everything a launch does on the host before the loop stores
    anything: scalars, the range check of every shift (``IndexError``),
    which also yields the head bound ``_hd``, and of every
    data-dependent index (:class:`~.bounds.IndexCheck`)."""
    env = _host_env(prog, bound)
    glb = {"np": np}
    for name, code in spec.scalarop_items:
        env[name] = eval(code, glb, env)  # noqa: S307
    n = int(eval(spec.n_code, glb, env))  # noqa: S307
    arrays = {a: bound[a] for a in _call_names(prog)
              if a in prog.array_params or a == "out"}
    sizes = {a: int(arrays[a].shape[0]) for a in spec.size_arrays}
    head = 0       # a shifted index can be negative only below this
    for off_code, n_code, base in spec.shift_checks:
        off = int(eval(off_code, glb, env))  # noqa: S307
        ln = int(eval(n_code, glb, env))  # noqa: S307
        size = int(arrays[base].shape[0])
        if off + ln > size or size + off < 0:
            raise IndexError(
                f"shifted gather out of range: offset {off}, "
                f"length {ln}, array size {size}")
        head = max(head, -off)
    spec.index_check(arrays, env, n)
    scalars = [eval(code, glb, env)  # noqa: S307
               for code, _k in spec.scal_items]
    return _Args(arrays, sizes, scalars, env, n, min(n, head))


def _pointers(names: list[str], arrays: dict) -> list[int]:
    """Data pointers for the C tier, which indexes every array flat."""
    ptrs = []
    for a in names:
        arr = arrays[a]
        if not arr.flags["C_CONTIGUOUS"]:
            raise LoopsUnsupported(f"array argument {a!r} is not contiguous")
        ptrs.append(arr.ctypes.data)
    return ptrs


def _c_scalars(spec: _Spec, values: list) -> list:
    return [int(v) if kind == "i" else float(v)
            for v, (_c, kind) in zip(values, spec.scal_items)]


# --- one compiled step over two time levels ----------------------------------

#: the time level a step overwrites: the parameter every LIFT sweep
#: program names the state at t - 1 (Listing 5's ``prev2``), which its
#: ``out`` — the state at t + 1 — replaces in a two-level leapfrog
_IN_PLACE = "prev"

#: the FD-MM branch velocity read and written (Listing 5's ``v2`` / ``v1``)
_VEL_PREV, _VEL_NEXT = "vel_prev", "vel_next"


def _step_links(programs: list) -> tuple[str, str, str] | None:
    """Check that ``programs`` — a sweep, then at most one boundary
    program — can run as one in-place step, and name the boundary
    program's links to it: ``(target, index array, index slot)``, the
    array it scatters through its boundary index (the sweep's output),
    the array that index is read from, and the slot holding it (``None``
    without a boundary program).

    In place is legal when the sweep reads ``prev`` only at its own
    point and stores its output once, as its last op (so on whole arrays
    too every read precedes the store), and the boundary program reads
    ``prev`` and the sweep's output only at its boundary point and
    stores nothing the sweep reads (nor, with :func:`_velocity_in_place`,
    ``vel_prev``); anything else raises :class:`LoopsUnsupported`."""
    if not 1 <= len(programs) <= 2:
        raise LoopsUnsupported(f"a step is a sweep and at most one boundary "
                               f"program, not {len(programs)} programs")
    arrays = {a for p in programs for a in p.array_params}
    for p in programs:
        reasons = p.loop_opaque_reasons()
        reasons += [f"{a!r} is an array in another program of the step"
                    for a in p.param_names
                    if a in arrays and a not in p.array_params]
        if reasons:
            raise LoopsUnsupported(f"{p.name}: {'; '.join(reasons)}")
    sweep = programs[0]
    if not (sweep.returns_out and sweep.written == {"out"}
            and _IN_PLACE in sweep.array_params
            and "NxNy" in sweep.param_names):
        raise LoopsUnsupported(
            f"{sweep.name} is not a sweep over Z-planes of NxNy points "
            f"that stores only its output and reads {_IN_PLACE!r}")
    for op in sweep.ops:
        if isinstance(op, (SliceStoreOp, IndexStoreOp)):
            legal = (op is sweep.ops[-1] and isinstance(op, SliceStoreOp)
                     and op.start == "0")
        else:
            legal = getattr(op, "base", None) != _IN_PLACE or (
                isinstance(op, ShiftOp) and op.offset == "0")
        if not legal:
            raise LoopsUnsupported(f"{sweep.name} cannot overwrite "
                                   f"{_IN_PLACE!r} in place: {op.render()}")
    if len(programs) == 1:
        return None
    bnd = programs[1]
    stores = [op for op in bnd.ops if isinstance(op, IndexStoreOp)]
    shifts = {op.name: op for op in bnd.ops if isinstance(op, ShiftOp)}
    index = shifts.get(_strip(stores[0].index)) if len(stores) == 1 else None
    if (index is None or index.offset != "0" or bnd.returns_out
            or index.n != bnd.gid_ops()[0].n):
        raise LoopsUnsupported(
            f"{bnd.name} is not a boundary program: it must scatter the "
            f"sweep's output through one index read at its own ordinal")
    target, slot = stores[0].target, index.name
    velocity = {_VEL_PREV} if _velocity_in_place(bnd) else set()
    clash = (bnd.written | {target} | velocity) & set(sweep.param_names)
    if clash:
        raise LoopsUnsupported(f"{bnd.name} stores {sorted(clash)}, which "
                               f"the sweep of another Z-plane may read")
    for op in bnd.ops:
        base = getattr(op, "base", None)
        if base in (_IN_PLACE, target) and not (
                isinstance(op, TakeOp) and _strip(op.index) == slot):
            raise LoopsUnsupported(f"{bnd.name} reads {base!r} other than "
                                   f"at its boundary point: {op.render()}")
    return target, index.base, slot


def _velocity_in_place(bnd: ArenaProgram) -> bool:
    """Whether a step may write ``bnd``'s ``vel_next`` over its
    ``vel_prev`` (False without both; :class:`LoopsUnsupported` if not):
    each read of ``vel_prev`` must gather the own ordinal plus the
    ``start`` of a later ``vel_next`` store of ``n`` points, and nothing
    else touch either, so a point reads what it overwrites, first
    (Listing 8's ``_v2[MB]``; distinct stores are disjoint, as for g1)."""
    if not (_VEL_NEXT in bnd.written and _VEL_PREV in bnd.array_params):
        return False
    n, ops = bnd.gid_ops()[0].n, list(enumerate(bnd.ops))
    first = {op.start: k for k, op in reversed(ops)      # store positions
             if isinstance(op, SliceStoreOp) and op.target == _VEL_NEXT}
    for k, op in ops:
        base, target = getattr(op, "base", None), getattr(op, "target", None)
        own_store = target != _VEL_NEXT or getattr(op, "count", None) == n
        own_read = base != _VEL_PREV or (
            isinstance(op, ShiftOp) and op.n == n
            and k < first.get(op.offset, -1))
        if (not (own_store and own_read) or target == _VEL_PREV
                or base == _VEL_NEXT):
            raise LoopsUnsupported(
                f"{bnd.name} cannot write {_VEL_NEXT!r} over {_VEL_PREV!r}"
                f": {op.render()}")
    return True


@dataclass
class StepKernel:
    """A scheme's programs compiled into one step (:func:`compile_step`),
    or one program into its own launch (:func:`compile_launch`).

    ``fn(**args)`` takes one value per name of :attr:`param_names` — the
    programs' parameters and sizes, as one host buffer feeds both
    kernels of Listing 5 — and advances the state in place: the sweep's
    output overwrites ``prev``, and the boundary program's updates of
    that output (its ``next``) land there too.  A launch renames nothing
    (:attr:`aliases` is empty): it writes its ``out`` argument, or the
    arrays its program stores, as the NumPy kernel would.  The first
    call per argument-dtype set types, generates and compiles the step.

    ``fn(**args, _blocks=(b0, b1))`` runs only Z-plane blocks
    ``[b0, b1)`` of the ``ceil(N / NxNy)``, each with its boundary
    points, so a run of ``[0, a)``, ``[a, b)`` and ``[b, nb)`` is the
    full step bit for bit; a range outside ``[0, nb]`` raises
    ``ValueError``.  ``tier="numpy"`` steps whole arrays and refuses a
    partial range (:class:`LoopsUnsupported`).
    """

    name: str
    programs: list
    tier: str
    param_names: list
    #: the boundary program's (output, index array, index slot) —
    #: :func:`_step_links`; None for a sweep alone
    links: tuple | None = None
    #: array parameter -> the parameter whose array it is bound to: a
    #: step's ``out`` and boundary output are ``prev`` (FD-MM: and
    #: ``vel_next`` is ``vel_prev``); a launch's none
    aliases: dict = field(default_factory=dict)
    cc_rung: str | None = None    # cc tier: the _CC_LADDER rung built with
    cc_isa: str | None = None     # ... and the psABI level (None: baseline)
    fn: object = None
    source: str = ""              # the step source of the latest build

    def bind(self, args: dict) -> list[dict]:
        """Each program's arguments, bound as its own launch would be,
        an aliased parameter to its alias's array (:attr:`aliases`)."""
        missing = [n for n in self.param_names if n not in args]
        if missing:
            raise TypeError(f"{self.name}() missing arguments: {missing}")
        shared = {**args, **{a: args[to] for a, to in self.aliases.items()}}
        return [{n: shared[n] for n in _call_names(p)}
                for p in self.programs]


@dataclass
class _StepSpec:
    """One compiled specialisation of a step."""

    source: str
    fn: object
    parts: list                   # one _Spec (host plan) per program
    arrays: dict                  # source token -> (program index, array)
    sizes: dict                   # _sz_ token -> (program index, array)


def _step_blocks(index: np.ndarray, n: int, blk: int, dtype) -> tuple:
    """The boundary ordinals of each block — ``_kb[b]`` to ``_kb[b + 1]``
    for the points in ``[b * blk, (b + 1) * blk)`` — and the scratch their
    old values are saved to.  Needs ``index`` strictly ascending inside
    the sweep, which ``build_topology`` guarantees (``np.flatnonzero``)."""
    if index.size and (np.any(index[1:] <= index[:-1]) or index[0] < 0
                       or index[-1] >= n):
        raise LoopsUnsupported(
            "boundary indices must ascend strictly inside the sweep for "
            "each Z-plane to own its boundary points")
    starts = np.minimum(np.arange(-(-n // blk) + 1, dtype=np.int64) * blk, n)
    return (np.searchsorted(index, starts).astype(np.int64),
            np.empty(index.size, dtype))


def _render_step(name: str, gens: list, links, params: list,
                 col: int) -> str:
    """The step in the python (``col`` 0) or C (1) rendering: one
    parallel loop over Z-plane blocks, each saving its boundary points'
    old values, sweeping its plane — the wraparound head clamped to the
    block — and updating its boundary points."""
    py = col == 0
    lines = []

    def loop(lo, hi, body):
        if py:
            lines.append(f"        for _i in range({lo}, {hi}):")
        else:
            lines.append(f"        for (long long _i = {lo}; _i < {hi}; "
                         f"++_i) {{")
        lines.extend(_loop_body(body, col, " " * 12))
        if not py:
            lines.append("        }")

    if links:
        a, i = gens[0].arr(_IN_PLACE), gens[1].arr(links[1])
        loop("_k0", "_k1", [(f"_pb[_i] = {a}[{i}[_i]]",
                             f"_pb[_i] = {a}[{i}[_i]];")])
    for k, gen in enumerate(gens):
        lo, hi = ("_b0", "_b1") if k == 0 else ("_k0", "_k1")
        hd = f"_hd{k}"
        if py:
            loop(lo, f"min({hd}, {hi})", gen.head)
            loop(f"max({hd}, {lo})", hi, gen.main)
        else:
            loop(lo, f"({hd} < {hi} ? {hd} : {hi})", gen.head)
            loop(f"({hd} > {lo} ? {hd} : {lo})", hi, gen.main)
    if py:
        return "\n".join([
            f"def _step_{name}({', '.join(params)}):",
            "    for _b in prange(_blo, _bhi):",
            "        _b0 = _b * _blk",
            "        _b1 = min(_b0 + _blk, _n)",
            *(["        _k0 = _kb[_b]", "        _k1 = _kb[_b + 1]"]
              if links else []),
            *lines]) + "\n"
    invariants = [decl for gen in gens for decl in gen.c_invariants]
    return "\n".join([
        "#include <math.h>",
        f"void repro_step_{name}({', '.join(params)})",
        "{",
        *(f"    {decl}" for decl in invariants),
        "    #pragma omp parallel for schedule(static)",
        "    for (long long _b = _blo; _b < _bhi; ++_b) {",
        "        const long long _b0 = _b * _blk;",
        "        const long long _b1 = _b0 + _blk < _n ? _b0 + _blk : _n;",
        *(["        const long long _k0 = _kb[_b], _k1 = _kb[_b + 1];"]
          if links else []),
        *lines,
        "    }",
        "}"]) + "\n"


def _build_step(kernel: StepKernel, bounds: list) -> _StepSpec:
    links = kernel.links
    gens, parts = [], []
    for k, (prog, bound) in enumerate(zip(kernel.programs, bounds)):
        saved = {(_IN_PLACE, links[2]): "_pb[_i]"} if k else {}
        gen, spec = _lower(prog, bound, names=kernel.aliases,
                           prefix=f"p{k}_", saved=saved)
        gens.append(gen)
        parts.append(spec)
    # one source parameter per array token: in a step ``out``, the
    # boundary's output and ``prev`` are one array
    arrays, sizes = {}, {}
    for k, gen in enumerate(gens):
        for a in gen.used_arrays:
            arrays.setdefault(gen.arr(a), (k, a))
        for a in gen.sizes:
            sizes.setdefault(f"_sz_{gen.arr(a)}", (k, a))
    heads = [f"_hd{k}" for k in range(len(gens))]
    scalars = [(tok, kind) for gen, part in zip(gens, parts)
               for tok, (_c, kind) in zip(gen.scal_args.values(),
                                          part.scal_items)]
    ptrs = [(tok, _CTYPE[_code(gens[k].dt[a])])
            for tok, (k, a) in arrays.items()]
    if links:
        ptrs += [("_pb", _CTYPE[_code(gens[0].dt[_IN_PLACE])]),
                 ("_kb", "long long")]
    if kernel.tier == "cc":
        params = ([f"{ct}* {tok}" for tok, ct in ptrs]
                  + [f"long long {s}" for s in sizes]
                  + [f"{'long long' if kind == 'i' else 'double'} {tok}"
                     for tok, kind in scalars]
                  + [f"long long {h}"
                     for h in (*heads, "_n", "_blk", "_blo", "_bhi")])
        source = _render_step(kernel.name, gens, links, params, 1)
        fn = _load_c(source, f"step_{kernel.name}",
                     f"repro_step_{kernel.name}",
                     [ctypes.c_void_p] * len(ptrs)
                     + [ctypes.c_longlong] * len(sizes)
                     + [_scalar_ctype(kind) for _t, kind in scalars]
                     + [ctypes.c_longlong] * (len(heads) + 4))
    else:
        params = ([tok for tok, _ct in ptrs] + list(sizes)
                  + [tok for tok, _k in scalars]
                  + [*heads, "_n", "_blk", "_blo", "_bhi"])
        source = _render_step(kernel.name, gens, links, params, 0)
        fn = _load_python(source, kernel.tier, kernel.name,
                          f"_step_{kernel.name}")
    return _StepSpec(source, fn, parts, arrays, sizes)


def _block_range(name: str, blocks, n: int, blk: int) -> tuple[int, int]:
    """``blocks`` as a range of the ``ceil(n / blk)`` Z-plane blocks of
    a step; ``None`` is all of them."""
    nb = -(-n // blk)
    if blocks is None:
        return 0, nb
    b0, b1 = (int(b) for b in blocks)
    if not 0 <= b0 <= b1 <= nb:
        raise ValueError(f"{name}: blocks [{b0}, {b1}) are not a range of "
                         f"its {nb} Z-plane blocks")
    return b0, b1


class _StepDispatch:
    """A compiled step's calls.  Specialisations and block ordinals are
    built once, under :attr:`lock`, so threads stepping disjoint block
    ranges of one state may make the first call together; a warm call
    only reads the two tables and takes no lock."""

    def __init__(self, kernel: StepKernel):
        self.kernel = kernel
        self.specs: dict = {}
        #: id of an index array -> (a weak reference to it, (K, n, blk,
        #: dtype), _kb, _pb): one entry per live index array that steps
        #: this kernel (process-wide), dropped with its array
        self.blocks: dict = {}
        self.lock = threading.Lock()

    def _spec(self, key, bounds) -> _StepSpec:
        with self.lock:
            spec = self.specs.get(key)
            if spec is None:
                spec = _build_step(self.kernel, bounds)
                self.kernel.source = spec.source
                if self.kernel.tier == "cc":  # a build may have re-probed
                    self.kernel.cc_rung, self.kernel.cc_isa = _cc_built()
                self.specs[key] = spec
            return spec

    def _ordinals(self, index, ident) -> tuple:
        """The block ordinals (``_kb``) and saved-value scratch (``_pb``)
        of ``index``; threads stepping disjoint ranges share both, as
        each block reads and writes only its own ordinals."""
        entry = self.blocks.get(id(index))
        if entry is not None and entry[0]() is index and entry[1] == ident:
            return entry[2:]
        with self.lock:
            entry = self.blocks.get(id(index))
            if entry is None or entry[0]() is not index or entry[1] != ident:
                blocks, key = self.blocks, id(index)

                def drop(ref):
                    if blocks.get(key, (None,))[0] is ref:
                        blocks.pop(key, None)

                entry = blocks[key] = (weakref.ref(index, drop), ident,
                                       *_step_blocks(np.asarray(
                                           index[:ident[0]]), *ident[1:]))
            return entry[2:]

    def __call__(self, _blocks=None, **args) -> None:
        kernel = self.kernel
        bounds = kernel.bind(args)
        key = tuple(map(_dtype_key, kernel.programs, bounds))
        spec = self.specs.get(key) or self._spec(key, bounds)
        # every program's prologue — shift range checks included — runs
        # before the step stores anything
        launches = [_prologue(p, s, b) for p, s, b in
                    zip(kernel.programs, spec.parts, bounds)]
        sweep = launches[0]
        blk = sweep.env.get("NxNy")
        if blk is None:         # a launch without planes: 8 blocks a CPU
            blk = max(1, -(-sweep.n // (8 * (os.cpu_count() or 1))))
        blk = int(blk)
        if blk <= 0:
            raise ValueError(f"{kernel.name}: NxNy must be positive, "
                             f"got {blk}")
        run = _block_range(kernel.name, _blocks, sweep.n, blk)
        arrays = {tok: launches[k].arrays[a]
                  for tok, (k, a) in spec.arrays.items()}
        order = list(spec.arrays)
        if kernel.links:
            bnd = launches[1]
            index = bnd.arrays[kernel.links[1]]
            arrays["_kb"], arrays["_pb"] = self._ordinals(
                index, (bnd.n, sweep.n, blk, arrays[_IN_PLACE].dtype))
            order += ["_pb", "_kb"]
        sizes = [launches[k].sizes[a] for k, a in spec.sizes.values()]
        tail = [launch.hd for launch in launches] + [sweep.n, blk, *run]
        if kernel.tier == "cc":
            spec.fn(*_pointers(order, arrays), *sizes,
                    *(v for part, launch in zip(spec.parts, launches)
                      for v in _c_scalars(part, launch.scalars)), *tail)
        else:
            spec.fn(*(arrays[t] for t in order), *sizes,
                    *(v for launch in launches for v in launch.scalars),
                    *tail)


def _saved_gather(bnd: ArenaProgram, slot: str) -> ArenaProgram:
    """``bnd`` with its gather of ``prev`` at the index ``slot`` read
    from ``_pb`` instead, at its own ordinal: ``_pb`` holds ``prev`` at
    the boundary points from before the sweep overwrote them."""
    n = bnd.gid_ops()[0].n
    ops = [ShiftOp(op.name, "_pb", n, "0", False)
           if isinstance(op, TakeOp) and op.base == _IN_PLACE
           and _strip(op.index) == slot else op for op in bnd.ops]
    return replace(
        bnd, ops=ops, param_names=[*bnd.param_names, "_pb"],
        array_params=[*bnd.array_params, "_pb"], vec=bnd.vec | {"_pb"})


class _NumpyStep:
    """The ``numpy`` realisation of a step: the compiled step's schedule
    on whole arrays.  It gathers ``prev`` at the boundary points into
    ``_pb``, runs the sweep's NumPy function with ``out=prev``, then the
    boundary program's, rewritten to read ``_pb`` (:func:`_saved_gather`)
    and ``vel_prev`` by copy.  One workspace per program and one ``_pb``
    per argument-shape set, and per caller stepping that shape at once
    (the step is shared process-wide, :func:`plan_step`): a warm step
    allocates no slot and no ``_pb``."""

    def __init__(self, kernel: StepKernel):
        self.kernel = kernel
        programs = list(kernel.programs)
        if kernel.links:
            programs[1] = _saved_gather(programs[1], kernel.links[2])
        if _VEL_NEXT in kernel.aliases:     # a view would see its stores
            programs[1] = replace(programs[1], ops=[
                replace(op, copy=True) if isinstance(op, ShiftOp)
                and op.base == _VEL_PREV else op for op in programs[1].ops])
        self.programs = programs
        self.fns = [p.numpy_fn() for p in programs]
        self.checks = [IndexCheck(p) for p in kernel.programs]
        #: argument shapes and scalars -> the free arenas of that shape:
        #: (one workspace per program, _pb, each program's host scalars
        #: and extent); a call takes one, or builds one if none is free
        self.arenas: dict = {}
        kernel.source = "\n\n".join(p.render() for p in programs)

    def workspaces(self) -> list:
        return [ws for free in self.arenas.values()
                for wss, _pb, _ext in free for ws in wss]

    def __call__(self, _blocks=None, **args) -> None:
        kernel = self.kernel
        bounds = kernel.bind(args)
        key = tuple((v.shape, v.dtype.str) if isinstance(v, np.ndarray)
                    else (type(v), v) for b in bounds for v in b.values())
        free = self.arenas.setdefault(key, [])
        try:
            arena = free.pop()
        except IndexError:
            extents = []
            for prog, bound in zip(kernel.programs, bounds):
                env = prog._with_scalar_ops(_host_env(prog, bound))
                extents.append((env, int(eval(  # noqa: S307
                    prog.gid_ops()[0].n, {"np": np}, env))))
            pb = None
            if kernel.links:
                pb = np.empty(extents[1][1], bounds[0][_IN_PLACE].dtype)
            arena = ([Workspace(f"step:{p.name}") for p in self.programs],
                     pb, extents)
        try:
            self._run(arena, bounds, _blocks)
        finally:
            free.append(arena)

    def _run(self, arena, bounds, _blocks) -> None:
        kernel = self.kernel
        workspaces, pb, extents = arena
        if _blocks is not None:
            env, n = extents[0]
            blk = int(env["NxNy"])
            if _block_range(kernel.name, _blocks, n, blk) != (0, -(-n // blk)):
                raise LoopsUnsupported(
                    f"{kernel.name}: the numpy tier steps whole arrays, "
                    f"so it takes only the full range of Z-plane blocks")
        # every data-dependent index is in range before anything is stored
        for check, bound, (env, n) in zip(self.checks, bounds, extents):
            check(bound, env, n)
        if pb is not None:
            index = bounds[1][kernel.links[1]]
            np.take(bounds[0][_IN_PLACE], index[:pb.size], out=pb)
            bounds[1]["_pb"] = pb
        for fn, bound, ws in zip(self.fns, bounds, workspaces):
            fn(**bound, _ws=ws)


def compile_step(programs: list, *, tier: str | None = None) -> StepKernel:
    """Compile a scheme's programs into one step over two time levels.

    ``programs`` is a sweep (``volume_kernel``, ``fi_fused_flat``) and
    optionally the boundary program that follows it.  Each program is
    lowered to one fused loop body (:func:`_lower`); the step runs them
    in one parallel loop over Z-plane blocks of ``NxNy`` points (the
    sweep's own size argument), and per block saves the old values of
    its boundary points, sweeps it in place — writing ``out`` into
    ``prev`` under one name — and updates its boundary points, whose
    gather of ``prev`` reads the saved values (FD-MM: ``vel_next`` is
    ``vel_prev`` under one name too).  Blocks share no written element,
    so they need no order among them.  Raises
    :class:`LoopsUnsupported` when the programs are not legal in place
    (:func:`_step_links`) or no compiled tier exists; the tier is the
    one :func:`select_tier` picks for ``tier``.  ``tier="numpy"`` runs
    the same schedule on whole arrays through the programs' NumPy
    functions (:class:`_NumpyStep`), on any host.
    """
    links = _step_links(programs)
    aliases = {"out": _IN_PLACE, **({links[0]: _IN_PLACE} if links else {})}
    if links and _velocity_in_place(programs[1]):
        aliases[_VEL_NEXT] = _VEL_PREV
    return _compile(programs, tier, links, aliases)


#: the steps :func:`plan_step` built, by their launches' kernel sources
#: and tier
_PLAN_STEPS: dict[tuple, StepKernel] = {}


def plan_step(plan, written: str, *, tier: str | None = None) -> StepKernel:
    """The launches of a host plan as one step (:func:`compile_step`)
    overwriting host parameter ``written``, Listing 5's oldest level:
    what every path steps.  Remembered process-wide per kernel sources
    and tier (``"numpy"``, or :func:`select_tier`'s), so all simulations
    of a scheme share one step; the wiring is checked per call, before
    anything is built.  Raises :class:`LoopsUnsupported` with no
    compiled tier for ``tier=None``, for programs :func:`compile_step`
    refuses, or unless the sweep reads ``written`` as ``prev``, the
    boundary program scatters into the sweep's output and a parameter
    two launches share names one buffer."""
    launches = plan.launches()
    programs = [op.kernel.arena_program() for op in launches]
    links = _step_links(programs)
    sources: dict[str, object] = {}
    for op in launches:
        for b in op.args:
            if b.param_name == "out" or b.kind == "size":
                continue
            if sources.setdefault(b.param_name, b.source) != b.source:
                raise LoopsUnsupported(
                    f"parameter {b.param_name!r} is bound to both "
                    f"{sources[b.param_name]!r} and {b.source!r}")
    out = launches[0].out_buffer
    wired = {_IN_PLACE: plan.host_buffers().get(written)}
    if links is not None:
        wired[links[0]] = out
    if out is None or any(sources.get(n) != b for n, b in wired.items()):
        raise LoopsUnsupported(
            f"the launches {[p.name for p in programs]} do not overwrite "
            f"{written!r} with their output")
    tier = "numpy" if tier == "numpy" else select_tier(tier)
    key = (*(op.kernel.source_key() for op in launches), tier)
    step = _PLAN_STEPS.get(key)
    if step is None:
        step = _PLAN_STEPS[key] = compile_step(programs, tier=tier)
    return step


def compile_launch(program: ArenaProgram, *,
                   tier: str | None = None) -> StepKernel:
    """Compile one program into its own launch: the loop of
    :func:`compile_step` over that program alone, with nothing renamed
    and nothing saved, over blocks of ``NxNy`` points — or of
    ``ceil(n / (8 · CPUs))`` for a program without ``NxNy``.  Raises
    :class:`LoopsUnsupported` when the program is loop-opaque or no
    compiled tier exists; the virtual runtime then runs the launch on
    the NumPy kernel (:meth:`repro.gpu.runtime.VirtualGPU._exec_kernel`).
    """
    reasons = program.loop_opaque_reasons()
    if reasons:
        raise LoopsUnsupported("; ".join(reasons))
    return _compile([program], tier, None, {})


def _compile(programs: list, tier: str | None, links,
             aliases: dict) -> StepKernel:
    if tier != "numpy":
        tier = select_tier(tier)
    rung, isa = _cc_built() if tier == "cc" else (None, None)
    names = list(dict.fromkeys(n for p in programs for n in _call_names(p)
                               if n not in aliases))
    kernel = StepKernel(
        name="_".join(p.name for p in programs), programs=list(programs),
        tier=tier, param_names=names, links=links, aliases=aliases,
        cc_rung=rung, cc_isa=isa)
    kernel.fn = (_NumpyStep if tier == "numpy" else _StepDispatch)(kernel)
    return kernel
