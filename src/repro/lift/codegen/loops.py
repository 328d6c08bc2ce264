"""Compiled fused-loop emitter for the arena program IR.

:func:`compile_loops` is the second executable consumer of the
backend-neutral :class:`~repro.lift.codegen.arena.ArenaProgram` (the
first is the NumPy-steady emitter, which simply ``exec``-compiles
``program.render()``).  It lowers the same straight-line three-address
program to one fused per-element loop — every slot becomes a scalar
local, every shift/take becomes an indexed load, every store an indexed
write — and compiles that loop through the best available tier:

* ``numba`` — ``njit(parallel=True, fastmath=False)`` over a Z-tiled
  ``prange`` (one Z-plane per block when the kernel carries an ``NxNy``
  size, matching the Devito-style tiled-stencil playbook);
* ``cc``    — generated C, the sweep one flat untiled loop, built with
  ``cc -O2 -ffp-contract=off -fwrapv`` (``_CC_FLAGS``: no fastmath, no
  FMA contraction — IEEE semantics identical to NumPy's per-op loops)
  plus the best rung of ``_CC_LADDER`` the compiler accepts, and loaded
  through :mod:`ctypes`.  The first rung is what makes GCC *vectorise*
  the main sweep (``-ftree-vectorize -fvect-cost-model=dynamic
  -fno-tree-sink``, with OpenMP-static when the compiler has it): at
  ``-O2`` or ``-O3`` alone its sink pass moves the loads feeding a
  select's arm behind the select's test and the vectoriser reports
  ``not vectorized: control flow in loop``.  Element-wise operations at
  unchanged width, so results are the same to the last bit; no ``-m``
  flag, so cached objects stay portable.  A compiler that rejects a
  rung takes the next (vector flags, then OpenMP, dropped); the rung is
  found once per process and recorded on the kernel
  (``LoopKernel.cc_rung``) and in ``loops_disk_cache_stats()``;
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
loop kernel's behalf.  Negative affine offsets reproduce fancy
indexing's wraparound (``index += size`` when negative) the way
:meth:`Workspace.shift` does — by splitting the sweep, not by testing
every element: ``_i + offset`` can only be negative for ``_i`` below the
largest ``-offset``, so every loop is emitted as a serial *head*
``[_lo, _hd)`` whose shifted loads carry the wrap test and a *main
sweep* ``[_hd, _n)`` (the parallel one) whose shifted loads are plain
``base[_i + offset]``.  The host computes ``_hd`` per launch from the
offsets it range-checks anyway; data-dependent ``take`` / indexed-store
indices keep their wrap test in both.

Fusing the whole program into one pass over the grid reorders stores of
element *i* before loads of element *j > i*.  That is value-preserving
here because the lowering only gathers from written arrays at the
element's own locations (boundary index sets are owner-partitioned and
injective by construction) — pinned process-wide by the cross-backend
bit-identity matrix in ``tests/acoustics/test_backend_matrix.py``.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .arena import (AliasOp, ArenaProgram, CastOp, ConstOp, FullStoreOp,
                    GidOp, IndexStoreOp, PadOp, ScalarOp, ShiftOp, Slice3Op,
                    SliceStoreOp, TakeOp, UfuncOp, WhereOp, Workspace)

__all__ = ["EMITTERS", "LoopKernel", "LoopsUnsupported", "available_tiers",
           "compile_loops", "loops_cache_dir", "loops_disk_cache_stats",
           "realise", "select_tier", "set_loops_cache_dir"]

#: the executable emitters of an :class:`ArenaProgram`, under the names the
#: backend registry and ``VirtualGPU(kernel_backend=)`` select them by
EMITTERS = ("numpy-steady", "numba")


class LoopsUnsupported(RuntimeError):
    """The fused-loop emitter cannot realise this program here: the
    program is loop-opaque, or no compiled tier exists on this host.
    What a caller's request makes of it is :func:`realise`'s rule."""


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
    """A working C compiler, probed once per process with a real
    compile-and-load round trip (never satisfied from the disk cache —
    a cached probe artifact would hide a missing compiler).  The probe
    walks :data:`_CC_LADDER` and keeps the first rung that builds."""
    if "path" in _cc_state:
        return _cc_state["path"]
    path = None
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            path = shutil.which(cand)
            break
    rung = None
    if path is not None:
        for rung in _CC_LADDER:
            try:
                lib = _cc_build(path, "void repro_loop_probe(void) {}\n",
                                "probe", cache=False, rung=rung)
                getattr(lib, "repro_loop_probe")
                break
            except Exception:
                continue
        else:
            path = rung = None
    _cc_state.update(path=path, rung=rung)
    return path


def _cc_rung() -> str | None:
    """The rung of :data:`_CC_LADDER` this process's C compiler builds
    with (``None`` without a working compiler) — the first one the probe
    of :func:`_cc_path` could compile, link and load."""
    return _cc_state["rung"] if _cc_path() else None


# -- on-disk compiled-artifact cache -----------------------------------------
#
# The cc tier builds a shared object per (program, dtype set).  Without a
# persistent cache every *process* pays that compile — painful for the
# gateway's worker-process pool, where N workers would each recompile the
# same four hot kernels at first touch.  Artifacts are content-addressed
# by a hash of (generated C source, compiler path, flag set), so a stale
# hit is impossible: change anything that could change the code and the
# key changes with it.

_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-fwrapv", "-ffp-contract=off")
#: What makes GCC vectorise the main sweep.  ``-O2`` alone never does:
#: its ``tree-sink`` pass moves the loads that feed a select's taken arm
#: behind the select's test, and the vectoriser then reports ``not
#: vectorized: control flow in loop``; the dynamic cost model admits the
#: runtime alias check the pointer arguments need.  Element-wise IEEE
#: operations at unchanged width, so results do not move; no ``-m`` flag,
#: so a cached ``.so`` runs on any host of the same architecture.
_CC_VECTOR_FLAGS = ("-ftree-vectorize", "-fvect-cost-model=dynamic",
                    "-fno-tree-sink")
#: Flag sets on top of :data:`_CC_FLAGS`, best first.  A compiler that
#: rejects a rung (clang refuses ``-fvect-cost-model=``; a gcc without
#: libgomp fails to link ``-fopenmp``) takes the next one; the probe of
#: :func:`_cc_path` walks the ladder once per process and every kernel
#: is built with the rung it found (:func:`_cc_rung`).
_CC_LADDER = {"vector+openmp": (*_CC_VECTOR_FLAGS, "-fopenmp"),
              "vector": _CC_VECTOR_FLAGS,
              "openmp": ("-fopenmp",),
              "plain": ()}
_disk_cache: dict = {}          # {"dir": str|None, "hits": int, "misses": int}


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
    """
    if "dir" not in _disk_cache:
        _disk_cache.update(dir=_resolve_cache_dir(), hits=0, misses=0)
    return _disk_cache["dir"]


def set_loops_cache_dir(path) -> None:
    """Relocate (or with ``None`` disable) the on-disk artifact cache
    for this process; counters keep accumulating across the switch."""
    loops_cache_dir()
    _disk_cache["dir"] = None if path is None else os.fspath(path)


def loops_disk_cache_stats() -> dict:
    """Hit/miss counters and entry count of the on-disk ``.so`` cache,
    and the flag-ladder rung its artifacts are built with (``None``
    until a cc-tier kernel made the process probe its compiler);
    surfaced through :func:`repro.gpu.runtime.kernel_cache_stats`."""
    d = loops_cache_dir()
    entries = 0
    if d is not None and os.path.isdir(d):
        entries = sum(1 for f in os.listdir(d) if f.endswith(".so"))
    return {"dir": d, "enabled": d is not None,
            "hits": _disk_cache["hits"], "misses": _disk_cache["misses"],
            "entries": entries, "cc_rung": _cc_state.get("rung")}


_build_dir: list = []
_build_seq = [0]


def _cc_workdir() -> str:
    if not _build_dir:
        d = tempfile.mkdtemp(prefix="repro-loops-")
        _build_dir.append(d)
        atexit.register(shutil.rmtree, d, ignore_errors=True)
    return _build_dir[0]


def _cc_compile(cc: str, flags: tuple, src: str, so: str):
    """Run the compiler; raises :class:`LoopsUnsupported` when it fails."""
    r = subprocess.run([cc, *flags, src, "-o", so, "-lm"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise LoopsUnsupported(f"C compilation failed:\n{r.stderr}")


def _cc_build(cc: str, source: str, stem: str, *, cache: bool = True,
              rung: str | None = None):
    """Compile ``source`` to a shared object and load it, with the flags
    of ladder rung ``rung`` (default: the one the probe found).

    With the disk cache enabled the artifact is content-addressed by
    (source, compiler, flags): a prior build — by any process — is
    dlopen'd directly, skipping the compiler entirely.  Builds land in
    the cache via an atomic rename, so concurrent worker processes
    racing on the same kernel at worst compile twice, never load a
    torn file.  Any cache-directory failure silently falls back to the
    per-process temp-dir build.
    """
    flags = _CC_FLAGS + _CC_LADDER[rung or _cc_rung()]
    cdir = loops_cache_dir() if cache else None
    if cdir is not None:
        key = hashlib.sha1("|".join(
            ("v1", cc, " ".join(flags), source)).encode()).hexdigest()
        so = os.path.join(cdir, f"{stem}-{key[:16]}.so")
        if os.path.exists(so):
            try:
                lib = ctypes.CDLL(so)
                _disk_cache["hits"] += 1
                return lib
            except OSError:
                pass                      # unreadable artifact: rebuild
        try:
            os.makedirs(cdir, exist_ok=True)
            tmp = os.path.join(cdir, f".build-{os.getpid()}-{stem}.so")
            src = so[:-3] + ".c"          # kept beside the .so for debugging
            with open(src, "w") as f:
                f.write(source)
            _cc_compile(cc, flags, src, tmp)
            os.replace(tmp, so)
            lib = ctypes.CDLL(so)
            _disk_cache["misses"] += 1
            return lib
        except LoopsUnsupported:
            raise
        except OSError:
            pass              # cache dir unusable: temp-dir build below
    d = _cc_workdir()
    _build_seq[0] += 1
    stem = f"{stem}_{_build_seq[0]}"
    src = os.path.join(d, f"{stem}.c")
    so = os.path.join(d, f"{stem}.so")
    with open(src, "w") as f:
        f.write(source)
    _cc_compile(cc, flags, src, so)
    return ctypes.CDLL(so)


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


def _strip(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        inner, depth = s[1:-1], 0
        for ch in inner:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                return s
        s = inner.strip()
    return s


# --- codegen ---------------------------------------------------------------


class _Gen:
    """Shared lowering state: one pass over the ops produces the loop
    body for the wraparound head ``[_lo, _hd)`` and for the main sweep
    ``[_hd, _n)`` — each line as a (python/numba, C) pair — plus the
    host-prologue plan.  The two bodies differ only in the affine loads
    (:meth:`indexed_load`)."""

    def __init__(self, program: ArenaProgram, dt: dict, scalar_dt: dict):
        self.prog = program
        self.dt = dt                  # name -> np.dtype (slots + arrays)
        self.scalar_dt = scalar_dt    # scalar-arg expr -> np.dtype
        self.local: dict[str, str] = {}      # slot -> loop token (py == C)
        self.const_arrays: list[str] = []    # host-materialised array args
        self.pad_arrays: list[str] = []
        self.used_arrays: list[str] = []     # kernel array-argument order
        self.sizes: list[str] = []           # arrays needing a _sz_ arg
        self.strides: list[tuple[str, int]] = []  # rank-3 (array, dim) args
        self.grid3 = program.loop_domain() == "grid3"
        self.scal_args: dict[str, str] = {}  # expr -> arg token
        self.head: list[tuple] = []          # (py line, C line | None)
        self.main: list[tuple] = []
        self.c_invariants: dict[str, str] = {}   # C declaration -> token

    # -- operand resolution ------------------------------------------

    def _use_array(self, name: str) -> None:
        if name not in self.used_arrays:
            self.used_arrays.append(name)

    def _need_size(self, name: str) -> str:
        if name not in self.sizes:
            self.sizes.append(name)
        return f"_sz_{name}"

    def _need_stride(self, name: str, dim: int) -> str:
        """A flattening stride of a 3-D array argument (dim 0: plane,
        dim 1: row), passed from the host like a size argument."""
        if (name, dim) not in self.strides:
            self.strides.append((name, dim))
        return f"_st{dim}_{name}"

    def scal(self, expr: str) -> tuple[str, np.dtype]:
        tok = self.scal_args.get(expr)
        if tok is None:
            tok = f"_s{len(self.scal_args)}"
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
        self.local[name] = name
        self.line(f"{name} = {py_rhs}", f"{_CTYPE[c]} {name} = {c_rhs};",
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
        self.assign(name, f"{base}[_j]", f"{base}[_j]", wrapping)
        if affine:
            self.assign(name, f"{base}[{py_idx}]", f"{base}[{c_idx}]",
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
    prog = gen.prog
    if gen.grid3:
        # flat loop over the rank-3 output: decompose _i into the
        # (z, y, x) window coordinates once per element (_ex, _eyx are
        # the host-evaluated window extents ex and ey*ex)
        gen.line("_iz = _i // _eyx", "long long _iz = _i / _eyx;")
        gen.line("_ir = _i - _iz * _eyx",
                 "long long _ir = _i - _iz * _eyx;")
        gen.line("_iy = _ir // _ex", "long long _iy = _ir / _ex;")
        gen.line("_ix = _ir - _iy * _ex",
                 "long long _ix = _ir - _iy * _ex;")
    for op in prog.ops:
        if isinstance(op, Slice3Op):
            if op.base in prog.written:
                raise LoopsUnsupported(
                    f"rank-3 slice of written array {op.base!r}")
            gen._use_array(op.base)
            st0 = gen._need_stride(op.base, 0)
            st1 = gen._need_stride(op.base, 1)
            z0, y0, x0 = op.starts
            idx = (f"({z0} + _iz) * {st0} + ({y0} + _iy) * {st1} "
                   f"+ ({x0} + _ix)")
            gen.assign(op.name, f"{op.base}[{idx}]", f"{op.base}[{idx}]")
            continue
        if isinstance(op, FullStoreOp):
            if op.rank != 3 or not gen.grid3:
                raise LoopsUnsupported(
                    f"full store has no loop lowering: {op.render()}")
            gen._use_array(op.target)
            vp, vc = gen.cast(op.value, gen.dt[op.target])
            gen.line(f"{op.target}[_i] = {vp}",
                     f"{op.target}[_i] = {vc};")
            continue
        if isinstance(op, GidOp):
            gen.local[op.name] = "_i"      # the loop variable
            continue
        if isinstance(op, ScalarOp):
            continue                       # host prologue
        if isinstance(op, ConstOp):
            gen.local[op.name] = f"{op.name}[_i]"
            gen.const_arrays.append(op.name)
            gen._use_array(op.name)
            continue
        if isinstance(op, PadOp):
            if op.base in prog.written:
                raise LoopsUnsupported(
                    f"pad of written array {op.base!r}")
            gen.pad_arrays.append(op.name)
            gen._use_array(op.name)
            continue
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
            gen.line(f"{op.target}[{start} + _i] = {vp}",
                     f"{op.target}[{start} + _i] = {vc};")
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
            gen.line(f"{op.target}[_j] = {vp}", f"{op.target}[_j] = {vc};")
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
    arrays = set(prog.array_params) | set(prog.array3_params)
    return ([p for p in prog.param_names if p not in arrays]
            + list(prog.size_params))


def _host_env(prog: ArenaProgram, bound: dict) -> dict:
    return {n: bound[n] for n in _scalar_names(prog)}


def _slot_dtypes(prog: ArenaProgram, bound: dict) -> tuple[dict, dict]:
    """Type the program before it runs: one forward pass over the ops.

    Returns ``(slot name -> dtype, scalar operand expr -> value)``.
    Views and gathers (shift / pad / slice3 / take / alias) take their
    base's dtype, a cast its declared one; every ``ufunc`` / ``where``
    applies *its own NumPy operation* to ``np.ones(1, dtype)`` stand-ins
    of its vector operands and the call-time values of its scalar
    operands, and a ``const`` expression is evaluated on the first
    element of the step-invariant vectors it names (``_gid`` is
    ``np.arange(1)``) — so NumPy decides every result dtype, weak
    Python scalars included, and no array argument's data is read.
    The values are kept because codegen needs each scalar operand's
    dtype and ``np.result_type`` its weak-scalar semantics.
    """
    glb = {"np": np}
    env = _host_env(prog, bound)
    dt = {p: np.asarray(bound[p]).dtype
          for p in (*prog.array_params, *prog.array3_params)}
    if prog.returns_out:
        dt["out"] = np.asarray(bound["out"]).dtype
    inv: dict[str, np.ndarray] = {}     # step-invariant vector -> element 0
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
            inv[op.name] = np.arange(1)
            dt[op.name] = inv[op.name].dtype
        elif isinstance(op, AliasOp):
            src = _strip(op.src)
            if src in dt:
                dt[op.name] = dt[src]
            if src in inv:
                inv[op.name] = inv[src]
        elif isinstance(op, ConstOp):
            inv[op.name] = np.asarray(
                eval(op.expr, glb, {**env, **inv}))  # noqa: S307
            dt[op.name] = inv[op.name].dtype
        elif isinstance(op, (ShiftOp, PadOp, Slice3Op, TakeOp)):
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
        elif isinstance(op, (IndexStoreOp, FullStoreOp)):
            arg(op.value)
    return dt, values


@dataclass
class _Spec:
    """One compiled specialisation (per argument-dtype set)."""

    source: str
    fn: object                    # python/numba callable or ctypes symbol
    tier: str
    arg_arrays: list[str]         # kernel array-argument order
    const_items: list             # (name, expr code, is const slot)
    pad_items: list               # (name, base, before, after, fill codes)
    size_arrays: list[str]
    scal_items: list              # (expr code, 'f'|'i') in arg order
    scalarop_items: list          # (name, code) in program order
    shift_checks: list            # (offset code, n code, base name)
    n_code: object
    gid_const: tuple | None       # ('_gid@N', n code) when there are consts
    domain: str = "gid"           # "gid" | "grid3"
    stride_items: list = field(default_factory=list)   # (array, dim)
    ex_code: object = None        # grid3: window extent ex
    eyx_code: object = None       # grid3: ey * ex


def _build_spec(prog: ArenaProgram, bound: dict, tier: str) -> _Spec:
    dt, values = _slot_dtypes(prog, bound)
    scalar_dt = {e: np.asarray(v).dtype for e, v in values.items()}
    gen = _Gen(prog, dt, scalar_dt)
    _lower_ops(gen, values)

    # step-invariant values the host materialises before the loop, in
    # program order: the const slots, and the aliases (``i_0 = _gid``)
    # their expressions may name
    has_const = bool(gen.const_arrays)
    host_ops = [op for op in prog.ops if isinstance(op, ConstOp)
                or (has_const and isinstance(op, AliasOp)
                    and op.name in prog.inv)]
    pad_ops = [op for op in prog.ops if isinstance(op, PadOp)]

    if gen.grid3:
        slices = [op for op in prog.ops if isinstance(op, Slice3Op)]
        if not slices:
            raise LoopsUnsupported(
                "rank-3 program without slice windows")
        ez, ey, ex = slices[0].extents
        for s in slices[1:]:
            if s.extents != (ez, ey, ex):
                raise LoopsUnsupported(
                    f"mismatched rank-3 window extents: {s.extents} vs "
                    f"{(ez, ey, ex)}")
        n_expr = f"({ez}) * ({ey}) * ({ex})"
        ex_expr, eyx_expr = f"({ex})", f"({ey}) * ({ex})"
    else:
        gid = prog.gid_ops()[0]
        n_expr = gid.n
        ex_expr = eyx_expr = None

    arrays = gen.used_arrays
    scal_order = list(gen.scal_args)
    extent_args = ["_ex", "_eyx"] if gen.grid3 else []
    args = (arrays + [f"_sz_{a}" for a in gen.sizes]
            + [f"_st{d}_{a}" for a, d in gen.strides]
            + [gen.scal_args[e] for e in scal_order]
            + extent_args + ["_lo", "_hd", "_n", "_tile"])

    source = _render_python(prog.name, args, gen)
    if tier == "cc":
        source = _render_c(prog.name, arrays, gen, scal_order, dt)
        lib = _cc_build(_cc_path(), source, prog.name)
        fn = getattr(lib, f"repro_loop_{prog.name}")
        argtypes = ([ctypes.c_void_p] * len(arrays)
                    + [ctypes.c_longlong] * len(gen.sizes)
                    + [ctypes.c_longlong] * len(gen.strides))
        for e in scal_order:
            argtypes.append(ctypes.c_longlong
                            if scalar_dt[e].kind in "iub"
                            else ctypes.c_double)
        argtypes += [ctypes.c_longlong] * (len(extent_args) + 3)
        fn.argtypes = argtypes
        fn.restype = None
    else:
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
        exec(compile(source, f"<loops:{prog.name}>", "exec"), ns)
        fn = ns[f"_loop_{prog.name}"]
        if tier == "numba":
            fn = njit(parallel=True, fastmath=False)(fn)

    def cc(expr):
        return compile(expr, "<loop host>", "eval")

    return _Spec(
        source=source, fn=fn, tier=tier, arg_arrays=arrays,
        const_items=[(op.name, cc(op.expr), True)
                     if isinstance(op, ConstOp)
                     else (op.name, cc(op.src), False) for op in host_ops],
        pad_items=[(op.name, op.base, cc(op.before), cc(op.after),
                    cc(op.fill)) for op in pad_ops],
        size_arrays=list(gen.sizes),
        scal_items=[(cc(e), "i" if scalar_dt[e].kind in "iub" else "f")
                    for e in scal_order],
        scalarop_items=[(op.name, cc(op.expr)) for op in prog.ops
                        if isinstance(op, ScalarOp)],
        shift_checks=[(cc(op.offset), cc(op.n), op.base) for op in prog.ops
                      if isinstance(op, ShiftOp)],
        n_code=cc(n_expr),
        gid_const=(f"_gid@{gid.n}", cc(gid.n)) if has_const else None,
        domain="grid3" if gen.grid3 else "gid",
        stride_items=list(gen.strides),
        ex_code=cc(ex_expr) if ex_expr is not None else None,
        eyx_code=cc(eyx_expr) if eyx_expr is not None else None)


def _loop_body(lines: list, col: int, indent: str) -> list:
    """One loop's body in the python (``col`` 0) or C (1) rendering;
    ``_j`` is declared only where a wrap test uses it."""
    body = [ln[col] for ln in lines if ln[col] is not None]
    if any(ln.startswith("_j = ") for ln in body):
        body.insert(0, ("_j = 0", "long long _j = 0;")[col])
    return [indent + ln for ln in body]


def _render_python(name: str, args: list[str], gen: _Gen) -> str:
    return "\n".join([
        f"def _loop_{name}({', '.join(args)}):",
        "    for _i in range(_lo, _hd):",
        *_loop_body(gen.head, 0, " " * 8),
        "    for _tb in prange((_n - _hd + _tile - 1) // _tile):",
        "        _b0 = _hd + _tb * _tile",
        "        _b1 = _b0 + _tile",
        "        if _b1 > _n:",
        "            _b1 = _n",
        "        for _i in range(_b0, _b1):",
        *_loop_body(gen.main, 0, " " * 12),
    ]) + "\n"


def _render_c(name: str, arrays: list[str], gen: _Gen,
              scal_order: list[str], dt: dict) -> str:
    params = []
    for a in arrays:
        params.append(f"{_CTYPE[_code(dt[a])]}* {a}")
    for a in gen.sizes:
        params.append(f"long long _sz_{a}")
    for a, d in gen.strides:
        params.append(f"long long _st{d}_{a}")
    for e in scal_order:
        kind = gen.scalar_dt[e].kind
        ctp = "long long" if kind in "iub" else "double"
        params.append(f"{ctp} {gen.scal_args[e]}")
    if gen.grid3:
        params += ["long long _ex", "long long _eyx"]
    params += ["long long _lo", "long long _hd", "long long _n"]
    return "\n".join([
        "#include <math.h>",
        f"void repro_loop_{name}({', '.join(params)})",
        "{",
        *(f"    {decl}" for decl in gen.c_invariants),
        "    for (long long _i = _lo; _i < _hd; ++_i) {",
        *_loop_body(gen.head, 1, " " * 8),
        "    }",
        "    #pragma omp parallel for schedule(static)",
        "    for (long long _i = _hd; _i < _n; ++_i) {",
        *_loop_body(gen.main, 1, " " * 8),
        "    }",
        "}",
    ]) + "\n"


# --- the dispatching kernel -------------------------------------------------


@dataclass
class LoopKernel:
    """A fused-loop realisation of one :class:`ArenaProgram`.

    Call-compatible with the NumPy-steady kernel (same positional and
    keyword signature, including the trailing ``_ws``, plus an optional
    ``_range=(lo, hi)`` restricting the sweep to those work-items).  The
    first call per argument-dtype set types the program
    (:func:`_slot_dtypes`), generates and compiles the loop, and runs
    it; every later call only runs it.  ``_ws`` holds what a loop kernel
    keeps between calls — ``const`` and ``pad`` slots — and nothing else.
    """

    name: str
    program: ArenaProgram
    tier: str
    cc_rung: str | None = None    # cc tier: the _CC_LADDER rung built with
    fn: object = None
    source: str = ""              # loop source of the latest specialisation
    param_names: list = field(default_factory=list)
    size_params: list = field(default_factory=list)
    out_alloc: object = None
    returns_out: bool = False


class _Dispatch:
    def __init__(self, kernel: LoopKernel):
        self.kernel = kernel
        self.specs: dict = {}
        self.own_ws: Workspace | None = None
        prog = kernel.program
        self.names = (list(prog.param_names) + list(prog.size_params)
                      + (["out"] if prog.returns_out else []))

    def _bind(self, args, kwargs) -> tuple[dict, Workspace]:
        bound = dict(zip(self.names, args))
        ws = kwargs.pop("_ws", None)
        bound.update(kwargs)
        if ws is None:
            if self.own_ws is None:
                self.own_ws = Workspace(f"loops:{self.kernel.name}")
            ws = self.own_ws
        missing = [n for n in self.names if n not in bound]
        if missing:
            raise TypeError(f"{self.kernel.name}() missing arguments: "
                            f"{missing}")
        return bound, ws

    def _key(self, bound: dict) -> tuple:
        prog = self.kernel.program
        key = []
        for n in self.names:
            v = bound[n]
            if (n in prog.array_params or n in prog.array3_params
                    or n == "out"):
                key.append(np.asarray(v).dtype.str)
            else:
                key.append((np.asarray(v).dtype.str,
                            type(v) in (int, float, bool)))
        return tuple(key)

    def __call__(self, *args, **kwargs):
        rng = kwargs.pop("_range", None)
        bound, ws = self._bind(args, kwargs)
        key = self._key(bound)
        spec = self.specs.get(key)
        if spec is None:
            spec = self.specs[key] = _build_spec(self.kernel.program, bound,
                                                 self.kernel.tier)
            self.kernel.source = spec.source
        return self._run(spec, bound, ws, rng)

    def _run(self, spec: _Spec, bound: dict, ws: Workspace, rng=None):
        prog = self.kernel.program
        env = _host_env(prog, bound)
        glb = {"np": np}
        for name, code in spec.scalarop_items:
            env[name] = eval(code, glb, env)  # noqa: S307
        n = int(eval(spec.n_code, glb, env))  # noqa: S307
        _key = tuple(env[s] for s in prog.scalar_params)
        host = dict(env)
        if spec.gid_const is not None:
            cname, ncode = spec.gid_const
            nv = int(eval(ncode, glb, env))  # noqa: S307
            host["_gid"] = ws.const(cname, _key,
                                    lambda: np.arange(nv))
        arrays = {a: bound[a] for a in self.names
                  if a in prog.array_params or a in prog.array3_params
                  or a == "out"}
        for name, code, is_slot in spec.const_items:
            if is_slot:
                snap = dict(host)
                host[name] = ws.const(
                    name, _key, lambda: eval(code, glb, snap))  # noqa: S307
                arrays[name] = np.asarray(host[name])
            else:
                host[name] = eval(code, glb, host)  # noqa: S307
        for name, base, before, after, fill in spec.pad_items:
            arrays[name] = ws.pad(name, arrays[base],
                                  eval(before, glb, host),   # noqa: S307
                                  eval(after, glb, host),    # noqa: S307
                                  eval(fill, glb, host))     # noqa: S307
        strides = []
        extents = []
        if spec.domain == "grid3":
            for a, d in spec.stride_items:
                shp = np.asarray(arrays[a]).shape
                strides.append(int(np.prod(shp[d + 1:])))
            for a in list(arrays):
                arr = np.asarray(arrays[a])
                if arr.ndim > 1:
                    if not arr.flags["C_CONTIGUOUS"]:
                        raise LoopsUnsupported(
                            f"rank-3 argument {a!r} is not contiguous")
                    arrays[a] = arr.reshape(-1)
            extents = [int(eval(spec.ex_code, glb, env)),    # noqa: S307
                       int(eval(spec.eyx_code, glb, env))]   # noqa: S307
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
        lo, hi = 0, n
        if rng is not None:
            lo = max(0, int(rng[0]))
            hi = min(n, int(rng[1]))
        hd = min(hi, max(lo, head))
        scal_vals = [eval(code, glb, env)  # noqa: S307
                     for code, _k in spec.scal_items]
        if hi <= lo:
            pass
        elif spec.tier == "cc":
            argv = []
            for a in spec.arg_arrays:
                arr = arrays[a]
                if not arr.flags["C_CONTIGUOUS"]:
                    raise LoopsUnsupported(
                        f"array argument {a!r} is not contiguous")
                argv.append(arr.ctypes.data)
            argv += [sizes[a] for a in spec.size_arrays]
            argv += strides
            for v, (_c, kind) in zip(scal_vals, spec.scal_items):
                argv.append(int(v) if kind == "i" else float(v))
            argv += extents
            argv += [lo, hd, hi]
            spec.fn(*argv)
        else:
            if spec.domain == "grid3":
                tile = extents[1]          # one output z-plane per task
            else:
                tile = int(env.get("NxNy") or 0)
                if tile <= 0 or tile > n:
                    tile = max(1, -(-n // (8 * (os.cpu_count() or 1))))
            argv = [arrays[a] for a in spec.arg_arrays]
            argv += [sizes[a] for a in spec.size_arrays]
            argv += strides
            argv += scal_vals
            argv += extents
            argv += [lo, hd, hi, tile]
            spec.fn(*argv)
        if prog.returns_out:
            return bound["out"]
        tail = prog.return_line[len("return "):].strip()
        return None if tail == "None" else bound.get(tail)


def compile_loops(program: ArenaProgram, *,
                  tier: str | None = None) -> LoopKernel:
    """Lower an :class:`ArenaProgram` to a compiled fused loop.

    Raises :class:`LoopsUnsupported` when the program is structurally
    loop-opaque or no compiled tier is available (:func:`realise` turns
    that into a fallback or lets it propagate).  Code generation itself
    happens on the kernel's first call, when the argument dtypes are
    known; a dtype the emitter has no C type for raises from there.
    """
    reasons = program.loop_opaque_reasons()
    if reasons:
        raise LoopsUnsupported("; ".join(reasons))
    resolved = select_tier(tier)
    kernel = LoopKernel(name=program.name, program=program, tier=resolved,
                        cc_rung=_cc_rung() if resolved == "cc" else None,
                        param_names=list(program.param_names),
                        size_params=list(program.size_params),
                        out_alloc=program.alloc,
                        returns_out=program.returns_out)
    kernel.fn = _Dispatch(kernel)
    return kernel


def realise(kernel, emitter: str | None = None):
    """The executable that runs a compiled ``NumpyKernel`` under
    ``emitter`` — the one statement of which emitter realises an
    :class:`ArenaProgram` and when a request may fall back.

    ``"numpy-steady"`` is the kernel itself (its source is
    ``kernel.program.render()``).  ``"numba"`` is an explicit request for
    the fused loop: :class:`LoopsUnsupported` (no compiled tier on this
    host, or a loop-opaque program) propagates.  ``None`` names no
    emitter: the best compiled tier, or — per kernel — the kernel itself
    when the loop emitter declines.  Both run the same program, so the
    choice never changes a result.
    """
    if emitter == "numpy-steady":
        return kernel
    if emitter is not None and emitter not in EMITTERS:
        raise ValueError(f"unknown emitter {emitter!r}; expected one of "
                         f"{EMITTERS} or None (best available)")
    try:
        return compile_loops(kernel.program)
    except LoopsUnsupported:
        if emitter is not None:
            raise
        return kernel
