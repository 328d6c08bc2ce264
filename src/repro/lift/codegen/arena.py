"""Workspace arena and the backend-neutral arena program IR.

Two layers live here:

* :class:`ArenaProgram` — the explicit three-address artifact
  :func:`~repro.lift.codegen.numpy_backend.compile_numpy` lowers a kernel
  to: a straight-line list of typed ops
  (pad / shift / take / ufunc / where / cast / const / stores) with the
  slot table, CSE, and affine-gather decisions already applied.  It is
  **backend-neutral**: ``render()`` prints the NumPy realisation
  (the exact source ``compile_numpy`` compiles), and
  :func:`repro.lift.codegen.loops.compile_step` lowers
  the *same object* to a compiled fused loop.  ``dump()`` is the stable
  golden-IR serialisation pinned by ``tests/lift/test_arena_program.py``.
* :class:`Workspace` — the runtime arena the rendered NumPy program
  executes against.

The lowering puts the kernel's expression tree in three-address form
where every full-grid operation routes through a :class:`Workspace`
instead of allocating a fresh array:

* the **first** call of each slot performs the plain NumPy operation
  (``np.add(a, b)``, ``np.where(c, t, f)``, ``arr[idx]``, ``np.pad``)
  and *keeps* the result as the slot's buffer — NumPy itself decides the
  result dtype, so the arena never has to re-derive promotion rules;
* every **later** call re-executes the same operation *into* that buffer
  (``out=``, ``np.copyto``, slice assignment), which is bit-identical to
  the allocating form because the buffer's dtype/shape are, by
  construction, exactly what the allocating form would have produced.

A workspace is keyed by the caller to one ``(kernel, sizes, dtype)``
combination — reusing it across different shapes raises (NumPy checks
each ``out=`` buffer against the result), and reusing it across dtypes
for the *same* shapes is a caller bug; key properly.

``freeze()`` turns any further slot allocation into an error and is the
allocation-tracking test hook: warm a kernel once, freeze its workspace,
and every subsequent step is provably allocation-free at full-grid
granularity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["ArenaFrozenError", "ArenaOp", "ArenaProgram", "NumpyKernel",
           "Slice3Op", "Workspace", "arena_stats", "reset_arena_stats"]


# --- the arena program IR ----------------------------------------------------------
#
# Every op renders exactly one line of the NumPy source
# (``render()``), and carries enough structure for a second emitter to
# lower it without re-parsing strings.  Operand fields hold *Python
# expression strings* over the kernel's parameters, size arguments and
# earlier temporaries — a bare identifier that names a vector slot is a
# full-grid value, anything else is a per-call scalar expression.


def _strip(s: str) -> str:
    """An operand expression without the parentheses around all of it
    (``"((t_1))"`` -> ``"t_1"``)."""
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        inner, depth = s[1:-1], 0
        for ch in inner:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                return s
        s = inner.strip()
    return s


class ArenaOp:
    """Base class for arena-program ops (one rendered source line).
    Value-producing ops carry a ``name`` field (their slot); stores
    carry a ``target`` instead."""

    def render(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """One stable ``dump()`` line (golden-IR serialisation)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarOp(ArenaOp):
    """A per-call scalar binding ``name = expr`` (no full-grid value)."""

    name: str
    expr: str

    def render(self) -> str:
        return f"{self.name} = {self.expr}"

    def describe(self) -> str:
        return f"scalar {self.name} = {self.expr}"


@dataclass(frozen=True)
class AliasOp(ArenaOp):
    """A pure rename of an existing vector slot."""

    name: str
    src: str

    def render(self) -> str:
        return f"{self.name} = {self.src}"

    def describe(self) -> str:
        return f"alias  {self.name} = {self.src}"


@dataclass(frozen=True)
class VecExprOp(ArenaOp):
    """Fallback: a vector value kept as an allocating NumPy
    expression.  Never produced by the hot FDTD kernels; its presence
    marks the program unsupported for the fused-loop emitter."""

    name: str
    expr: str

    def render(self) -> str:
        return f"{self.name} = {self.expr}"

    def describe(self) -> str:
        return f"vexpr  {self.name} = {self.expr}"


@dataclass(frozen=True)
class Slice3Op(ArenaOp):
    """A rank-3 basic-slicing view ``base[z0:z0+ez, y0:y0+ey, x0:x0+ex]``
    (a shifted stencil window into a 3-D grid).  Renders to exactly the
    NumPy view expression — non-allocating — and carries the starts and
    extents structurally."""

    name: str
    base: str
    starts: tuple[int, int, int]
    extents: tuple[str, str, str]

    def render(self) -> str:
        sub = ", ".join(f"{s}:{s}+{e}"
                        for s, e in zip(self.starts, self.extents))
        return f"{self.name} = {self.base}[{sub}]"

    def describe(self) -> str:
        sub = ", ".join(f"{s}:{s}+{e}"
                        for s, e in zip(self.starts, self.extents))
        return f"slice3 {self.name} = {self.base}[{sub}]"


@dataclass(frozen=True)
class GidOp(ArenaOp):
    """The contiguous work-item range ``_gid = np.arange(n)`` opening a
    ``MapGlb`` region; ``n`` is the region's extent expression."""

    n: str
    name: str = "_gid"

    def render(self) -> str:
        return (f"_gid = _ws.const('_gid@{self.n}', _key, "
                f"lambda: np.arange({self.n}))")

    def describe(self) -> str:
        return f"gid    _gid = arange({self.n})"


@dataclass(frozen=True)
class ConstOp(ArenaOp):
    """A step-invariant vector hoisted into a keyed const slot."""

    name: str
    expr: str

    def render(self) -> str:
        return f"{self.name} = _ws.const({self.name!r}, _key, lambda: {self.expr})"

    def describe(self) -> str:
        return f"const  {self.name} = {self.expr}"


@dataclass(frozen=True)
class ShiftOp(ArenaOp):
    """Affine gather ``base[_gid + offset]`` over ``n`` elements;
    ``copy`` snapshots when the kernel also writes ``base``."""

    name: str
    base: str
    n: str
    offset: str
    copy: bool

    def render(self) -> str:
        return (f"{self.name} = _ws.shift({self.name!r}, {self.base}, "
                f"{self.n}, {self.offset}, copy={self.copy})")

    def describe(self) -> str:
        c = " copy" if self.copy else ""
        return (f"shift  {self.name} = {self.base}[_gid + {self.offset}]"
                f" n={self.n}{c}")


@dataclass(frozen=True)
class TakeOp(ArenaOp):
    """Fancy gather ``base[index]`` through a vector index slot."""

    name: str
    base: str
    index: str

    def render(self) -> str:
        return f"{self.name} = _ws.take({self.name!r}, {self.base}, {self.index})"

    def describe(self) -> str:
        return f"take   {self.name} = {self.base}[{self.index}]"


@dataclass(frozen=True)
class UfuncOp(ArenaOp):
    """Elementwise ufunc application into the slot's buffer."""

    name: str
    ufunc: str                  # e.g. "np.add"
    args: tuple[str, ...]

    def render(self) -> str:
        return (f"{self.name} = _ws.ufunc({self.name!r}, {self.ufunc}, "
                f"{', '.join(self.args)})")

    def describe(self) -> str:
        return f"ufunc  {self.name} = {self.ufunc}({', '.join(self.args)})"


@dataclass(frozen=True)
class WhereOp(ArenaOp):
    """Elementwise select ``np.where(cond, if_true, if_false)``."""

    name: str
    cond: str
    if_true: str
    if_false: str

    def render(self) -> str:
        return (f"{self.name} = _ws.where({self.name!r}, {self.cond}, "
                f"{self.if_true}, {self.if_false})")

    def describe(self) -> str:
        return (f"where  {self.name} = where({self.cond}, {self.if_true}, "
                f"{self.if_false})")


@dataclass(frozen=True)
class CastOp(ArenaOp):
    """Elementwise dtype conversion (C-cast semantics)."""

    name: str
    value: str
    dtype: str                  # e.g. "np.float32"

    def render(self) -> str:
        return f"{self.name} = _ws.cast({self.name!r}, {self.value}, {self.dtype})"

    def describe(self) -> str:
        return f"cast   {self.name} = ({self.dtype}) {self.value}"


@dataclass(frozen=True)
class PadOp(ArenaOp):
    """Persistent 1-D ghost cells around ``base`` (halo written once)."""

    name: str
    base: str
    before: str
    after: str
    fill: str

    def render(self) -> str:
        return (f"{self.name} = _ws.pad({self.name!r}, {self.base}, "
                f"{self.before}, {self.after}, {self.fill})")

    def describe(self) -> str:
        return (f"pad    {self.name} = pad({self.base}, {self.before}, "
                f"{self.after}, fill={self.fill})")


@dataclass(frozen=True)
class Pad3Op(ArenaOp):
    """Persistent 3-D ghost cells (symmetric width)."""

    name: str
    base: str
    width: str
    fill: str

    def render(self) -> str:
        return (f"{self.name} = _ws.pad3({self.name!r}, {self.base}, "
                f"{self.width}, {self.fill})")

    def describe(self) -> str:
        return f"pad3   {self.name} = pad3({self.base}, {self.width}, fill={self.fill})"


@dataclass(frozen=True)
class SliceStoreOp(ArenaOp):
    """Contiguous scatter ``target[start : start + count] = value``
    (the affine form of a unique-index scatter).  ``lhs`` keeps the
    exact rendered subscript text."""

    target: str
    start: str
    count: str
    value: str
    lhs: str

    def render(self) -> str:
        return f"{self.lhs} = {self.value}"

    def describe(self) -> str:
        return (f"store  {self.target}[{self.start} : {self.start} + "
                f"{self.count}] = {self.value}")


@dataclass(frozen=True)
class IndexStoreOp(ArenaOp):
    """Scatter through a vector index slot: ``target[index] = value``.
    Indices are unique by construction (owner-partitioned points)."""

    target: str
    index: str
    value: str

    def render(self) -> str:
        return f"{self.target}[{self.index}] = {self.value}"

    def describe(self) -> str:
        return f"store  {self.target}[{self.index}] = {self.value}"


@dataclass(frozen=True)
class ElemStoreOp(ArenaOp):
    """A single-element store with a per-call scalar index."""

    target: str
    index: str
    value: str

    def render(self) -> str:
        return f"{self.target}[{self.index}] = {self.value}"

    def describe(self) -> str:
        return f"selem  {self.target}[{self.index}] = {self.value}"


@dataclass(frozen=True)
class FullStoreOp(ArenaOp):
    """Whole-buffer store ``target[:] = value`` (rank 1) or
    ``target[:, :, :] = value`` (rank 3)."""

    target: str
    value: str
    rank: int = 1

    def render(self) -> str:
        sub = ":" if self.rank == 1 else ":, :, :"
        return f"{self.target}[{sub}] = {self.value}"

    def describe(self) -> str:
        return f"fill   {self.target}[...] = {self.value} rank={self.rank}"


@dataclass(frozen=True)
class RawOp(ArenaOp):
    """An escape hatch for source lines with no structured form; its
    presence marks the program unsupported for the fused-loop emitter."""

    line: str

    def render(self) -> str:
        return self.line

    def describe(self) -> str:
        return f"raw    {self.line}"


#: op kinds the fused-loop emitter declines: it lowers flat ``_gid``
#: programs that keep nothing between calls, so no const / pad slot, no
#: rank-3 window or whole-buffer store, and no op without structure
_LOOP_OPAQUE = (VecExprOp, ConstOp, PadOp, Pad3Op, Slice3Op, ElemStoreOp,
                FullStoreOp, RawOp)


@dataclass
class ArenaProgram:
    """The backend-neutral lowering of one kernel Lambda.

    A straight-line three-address program over named slots: CSE, affine
    gather/scatter decisions, step-invariant hoisting and float-width
    discipline are already applied, so every consumer sees the same
    lowering.  ``render()`` prints the NumPy realisation (what
    ``compile_numpy`` executes); the fused-loop emitter
    (:mod:`repro.lift.codegen.loops`) walks ``ops`` directly.
    """

    name: str
    #: kernel parameters, in call order
    param_names: list[str] = field(default_factory=list)
    #: size arguments appended to the signature
    size_params: list[str] = field(default_factory=list)
    #: scalar arguments forming the const-slot key, in key order
    scalar_params: list[str] = field(default_factory=list)
    #: names of 1-D array parameters
    array_params: list[str] = field(default_factory=list)
    #: names of 3-D array parameters (rank-3 full-store programs)
    array3_params: list[str] = field(default_factory=list)
    #: arrays the kernel stores into (params and/or "out")
    written: frozenset = frozenset()
    #: True when the kernel writes a fresh ``out`` buffer
    returns_out: bool = False
    #: the exact ``return ...`` line of the rendered source
    return_line: str = "return None"
    ops: list = field(default_factory=list)
    #: names bound to full-grid (vector) values
    vec: frozenset = frozenset()
    #: vector names that are step-invariant
    inv: frozenset = frozenset()
    #: memory-allocation plan (repro.lift.codegen.plan.KernelAllocation);
    #: carried for the compiled callable, not part of the IR identity
    alloc: object | None = field(default=None, compare=False, repr=False)

    # -- queries -------------------------------------------------------

    def gid_ops(self) -> list:
        return [op for op in self.ops if isinstance(op, GidOp)]

    def loop_opaque_reasons(self) -> list[str]:
        """Why the fused-loop emitter must decline this program
        (empty = one flat ``_gid`` sweep it lowers)."""
        reasons = [f"{type(op).__name__}: {op.render()}" for op in self.ops
                   if isinstance(op, _LOOP_OPAQUE)]
        if len(self.gid_ops()) != 1:
            reasons.append(f"{len(self.gid_ops())} MapGlb regions (need 1)")
        return reasons

    def shift_offsets(self) -> list[str]:
        """Offset expressions of every affine gather in the program."""
        return [op.offset for op in self.ops if isinstance(op, ShiftOp)]

    def _with_scalar_ops(self, env: dict) -> dict:
        """``env`` plus the program's host-side scalars (``ScalarOp``),
        as far as ``env`` lets them be evaluated."""
        local = dict(env)
        for op in self.ops:
            if isinstance(op, ScalarOp):
                try:
                    local[op.name] = eval(  # noqa: S307
                        op.expr, {"np": np}, local)
                except Exception:
                    pass
        return local

    def halo_footprint(self, env: dict) -> tuple[int, int]:
        """The kernel's shift-op offset footprint ``(h_lo, h_hi)``:
        how many elements below / above a work item's own index its
        affine gathers reach, evaluated under ``env`` (the scalar and
        size argument values).  This is what a domain decomposition
        needs: cells in ``[h_lo, n - h_hi)`` read no halo data (the
        interior variant), the rest form the thin boundary variant that
        must wait for the neighbour exchange.  Gathers through index
        vectors (TakeOp) are owner-partitioned boundary reads and are
        not part of the affine footprint.
        """
        local = self._with_scalar_ops(env)
        lo = hi = 0
        for off in self.shift_offsets():
            v = int(eval(off, {"np": np}, dict(local)))  # noqa: S307
            if v < 0:
                lo = max(lo, -v)
            else:
                hi = max(hi, v)
        return lo, hi

    def min_bytes(self, bound: dict) -> int:
        """The fewest bytes one call can move: every element the program
        touches, read once and (if stored) written once, at the item
        size of the array *bound* to the parameter — storage width is a
        host binding, so ``nbrs`` held as ``int8`` moves a quarter of
        what ``int32`` does through the same program.  ``bound`` maps
        the parameter and size names (and ``"out"``) to the call's
        arguments.

        Per array and direction: an affine access (shift, slice store)
        touches the ``n`` elements of its sweep, and windows that
        overlap — a stencil's neighbours — are one window, disjoint ones
        (``fd_mm``'s branch planes) one each; how far a window reaches
        past the sweep is :meth:`halo_footprint`'s subject and is not
        counted.  A gather or scatter touches ``n`` elements per
        distinct index vector; pad, rank-3 slice and full store touch
        the whole array.  All capped at the array's size (a coefficient
        table gathered ``K`` times is read once).  The arena's
        temporaries and cache misses are not traffic the algorithm
        needs, so this is the denominator for achieved bytes/s.
        """
        env = self._with_scalar_ops(
            {k: v for k, v in bound.items() if not isinstance(v, np.ndarray)})

        def value(expr: str) -> int:
            return int(eval(expr, {"np": np}, env))  # noqa: S307

        windows: dict = {}    # (array, is_write) -> [(offset, n)]
        vectors: dict = {}    # (array, is_write) -> {index slot}
        whole: set = set()    # (array, is_write)
        n_gid = 0
        for op in self.ops:
            if isinstance(op, (VecExprOp, RawOp)):
                raise ValueError(
                    f"{self.name}: no structured access to count in "
                    f"{op.render()!r}")
            if isinstance(op, GidOp):
                n_gid = value(op.n)
            elif isinstance(op, ShiftOp):
                windows.setdefault((op.base, False), []).append(
                    (value(op.offset), value(op.n)))
            elif isinstance(op, SliceStoreOp):
                windows.setdefault((op.target, True), []).append(
                    (value(op.start), value(op.count)))
            elif isinstance(op, TakeOp):
                vectors.setdefault((op.base, False), set()).add(op.index)
            elif isinstance(op, IndexStoreOp):
                vectors.setdefault((op.target, True), set()).add(op.index)
            elif isinstance(op, (PadOp, Pad3Op, Slice3Op)):
                whole.add((op.base, False))
            elif isinstance(op, FullStoreOp):
                whole.add((op.target, True))
        total = 0
        for key in {*windows, *vectors, *whole}:
            array = np.asarray(bound[key[0]])
            elems = n_gid * len(vectors.get(key, ()))
            end = None
            for off, n in sorted(windows.get(key, ())):
                if end is None or off >= end:
                    elems += n
                    end = off + n
            if key in whole:
                elems = array.size
            total += min(elems, array.size) * array.itemsize
        return total

    # -- emitters ------------------------------------------------------

    def signature(self) -> list[str]:
        return (list(self.param_names) + list(self.size_params)
                + (["out"] if self.returns_out else []) + ["_ws=None"])

    def render(self) -> str:
        """The NumPy source: exactly what ``compile_numpy`` compiles."""
        lines = [f"def {self.name}({', '.join(self.signature())}):"]
        lines.append("    if _ws is None:")
        lines.append("        _ws = _Workspace()")
        key = ", ".join(self.scalar_params) + ("," if self.scalar_params else "")
        lines.append(f"    _key = ({key})")
        for op in self.ops:
            lines.append("    " + op.render())
        lines.append("    " + self.return_line)
        return "\n".join(lines)

    def numpy_fn(self):
        """Execute :meth:`render`: the NumPy realisation as a callable."""
        namespace: dict[str, object] = {"np": np, "_Workspace": Workspace}
        exec(compile(self.render(), f"<numpy backend:{self.name}>", "exec"),
             namespace)
        return namespace[self.name]

    def numpy_kernel(self) -> "NumpyKernel":
        """:meth:`numpy_fn` with its source and signature: the compiled
        source IS the program's rendering (pinned by
        tests/lift/test_arena_program.py)."""
        return NumpyKernel(name=self.name, source=self.render(),
                           fn=self.numpy_fn(), param_names=self.param_names,
                           size_params=self.size_params, out_alloc=self.alloc,
                           returns_out=self.returns_out, program=self)

    def dump(self) -> str:
        """Stable golden-IR serialisation (one line per op)."""
        head = [
            f"arena-program {self.name}",
            f"params:  {' '.join(self.param_names)}",
            f"sizes:   {' '.join(self.size_params)}",
            f"scalars: {' '.join(self.scalar_params)}",
            f"arrays:  {' '.join(self.array_params)}",
            *([f"arrays3: {' '.join(self.array3_params)}"]
              if self.array3_params else []),
            f"written: {' '.join(sorted(self.written))}",
            f"returns: {'out' if self.returns_out else self.return_line}",
        ]
        body = [f"  {op.describe()}" for op in self.ops]
        return "\n".join(head + body)


@dataclass
class NumpyKernel:
    """A compiled NumPy kernel: source text plus the callable."""

    name: str
    source: str
    fn: object
    param_names: list[str]
    size_params: list[str]
    out_alloc: object           # KernelAllocation
    returns_out: bool           # True when a fresh `out` buffer is written
    #: the backend-neutral lowering artifact every executable emitter
    #: consumes; ``source`` is exactly ``program.render()``
    program: ArenaProgram
    #: what runs it, named as a compiled step names its tier
    tier: ClassVar[str] = "numpy"
    cc_rung: ClassVar[str | None] = None

    def __call__(self, *args, **sizes):
        return self.fn(*args, **sizes)


class ArenaFrozenError(RuntimeError):
    """A frozen workspace was asked to allocate a new slot."""


#: live workspaces, for process-wide accounting (obs gauge)
_REGISTRY: "weakref.WeakSet[Workspace]" = weakref.WeakSet()
#: cumulative process-wide counters (survive workspace GC)
_TOTALS = {"hits": 0, "misses": 0}


def arena_stats() -> dict:
    """Process-wide arena accounting: live workspaces, cumulative
    hit/miss counters, and resident bytes across live workspaces."""
    live = list(_REGISTRY)
    return {
        "workspaces": len(live),
        "hits": _TOTALS["hits"],
        "misses": _TOTALS["misses"],
        "nbytes": sum(ws.nbytes() for ws in live),
    }


def reset_arena_stats() -> None:
    """Zero the cumulative counters (test isolation)."""
    _TOTALS["hits"] = 0
    _TOTALS["misses"] = 0


class Workspace:
    """Named buffer slots for one kernel's steady-state temporaries.

    Slot names come from the generated source (each three-address
    temporary owns one slot), so a workspace instance must be dedicated
    to one generated kernel at one set of array shapes/dtypes.
    ``const`` slots additionally carry a key — the tuple of every scalar
    and size argument — and recompute when it changes, which makes
    cached index arrays safe across parameter changes.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self._slots: dict[str, np.ndarray] = {}
        self._consts: dict[str, tuple[tuple, object]] = {}
        self.hits = 0
        self.misses = 0
        self.frozen = False
        _REGISTRY.add(self)

    # -- accounting ----------------------------------------------------

    def _hit(self) -> None:
        self.hits += 1
        _TOTALS["hits"] += 1

    def _miss(self, name: str) -> None:
        if self.frozen:
            raise ArenaFrozenError(
                f"workspace {self.label!r} is frozen but slot {name!r} "
                f"requires allocation")
        self.misses += 1
        _TOTALS["misses"] += 1

    def freeze(self) -> None:
        """Forbid further allocation; later misses raise
        :class:`ArenaFrozenError`.  The allocation-tracking test hook."""
        self.frozen = True

    def thaw(self) -> None:
        self.frozen = False

    def reset(self) -> None:
        """Drop all buffers (counters are kept)."""
        self._slots.clear()
        self._consts.clear()

    def nbytes(self) -> int:
        total = sum(b.nbytes for b in self._slots.values())
        for _key, val in self._consts.values():
            if isinstance(val, np.ndarray):
                total += val.nbytes
        return total

    def stats(self) -> dict:
        return {"label": self.label, "slots": len(self._slots),
                "consts": len(self._consts), "hits": self.hits,
                "misses": self.misses, "nbytes": self.nbytes()}

    # -- operations ----------------------------------------------------

    def ufunc(self, name: str, uf, *args):
        """``uf(*args)`` on miss (result kept as the buffer),
        ``uf(*args, out=buf)`` on hit."""
        buf = self._slots.get(name)
        if buf is not None:
            self._hit()
            return uf(*args, out=buf)
        self._miss(name)
        res = uf(*args)
        if isinstance(res, np.ndarray) and res.ndim:
            self._slots[name] = res
        return res

    def where(self, name: str, cond, if_true, if_false):
        """``np.where`` without allocating both branches into a third
        array on the hot path: fill with ``if_false``, overwrite where
        ``cond`` — elementwise identical to ``np.where``."""
        buf = self._slots.get(name)
        if buf is not None:
            self._hit()
            np.copyto(buf, if_false)
            np.copyto(buf, if_true, where=cond)
            return buf
        self._miss(name)
        res = np.where(cond, if_true, if_false)
        if isinstance(res, np.ndarray) and res.ndim:
            self._slots[name] = res
        return res

    def take(self, name: str, arr, indices):
        """Fancy gather ``arr[indices]``; ``np.take(..., out=buf)`` on
        the hot path (``mode='raise'`` matches fancy indexing for both
        negative wraparound and out-of-bounds errors)."""
        buf = self._slots.get(name)
        if buf is not None:
            self._hit()
            return np.take(arr, indices, out=buf)
        self._miss(name)
        res = arr[indices]
        self._slots[name] = res
        return res

    def shift(self, name: str, arr, n, offset, copy: bool = False):
        """The gather ``arr[_gid + offset]`` for an affine index.

        In-range offsets are pure views (zero copy, zero allocation)
        unless ``copy=True`` (required when the kernel also writes
        ``arr``: the copy preserves read-before-write semantics).
        Negative offsets reproduce fancy indexing's negative-index
        wraparound exactly via (at most two) slice copies into the
        slot's buffer.
        """
        size = int(arr.shape[0])
        n = int(n)
        offset = int(offset)
        if offset + n > size or size + offset < 0:
            raise IndexError(
                f"shifted gather out of range: offset {offset}, "
                f"length {n}, array size {size}")
        if offset >= 0 or offset + n <= 0:
            # contiguous — either in range or fully wrapped
            start = offset if offset >= 0 else size + offset
            view = arr[start:start + n]
            if not copy:
                self._hit()
                return view
            buf = self._slots.get(name)
            if buf is None:
                self._miss(name)
                buf = view.copy()
                self._slots[name] = buf
            else:
                self._hit()
                np.copyto(buf, view)
            return buf
        # straddles the wrap point: indices -wrap..-1 then 0..n-wrap-1
        wrap = -offset
        buf = self._slots.get(name)
        if buf is None:
            self._miss(name)
            buf = np.empty(n, dtype=arr.dtype)
            self._slots[name] = buf
        else:
            self._hit()
        buf[:wrap] = arr[size - wrap:]
        buf[wrap:] = arr[:n - wrap]
        return buf

    def cast(self, name: str, value, dtype):
        """Dtype conversion; ``np.copyto(buf, value, casting='unsafe')``
        on the hot path (the same C cast ``astype`` performs)."""
        buf = self._slots.get(name)
        if buf is not None:
            self._hit()
            np.copyto(buf, value, casting="unsafe")
            return buf
        self._miss(name)
        # astype always copies, so the slot never aliases an input
        res = np.asarray(value).astype(dtype)
        if res.ndim:
            self._slots[name] = res
        return res

    def pad(self, name: str, arr, before, after, value):
        """Persistent ghost cells, 1-D: the halo (``value``) is written
        once at allocation; later calls only refresh the interior."""
        before = int(before)
        n = int(arr.shape[0])
        buf = self._slots.get(name)
        if (buf is not None and buf.shape[0] == n + before + int(after)
                and buf.dtype == arr.dtype):
            self._hit()
            buf[before:before + n] = arr
            return buf
        self._miss(name)
        buf = np.pad(arr, (before, int(after)), constant_values=value)
        self._slots[name] = buf
        return buf

    def pad3(self, name: str, arr, width, value):
        """Persistent ghost cells, 3-D symmetric width."""
        w = int(width)
        shape = tuple(s + 2 * w for s in arr.shape)
        buf = self._slots.get(name)
        if buf is not None and buf.shape == shape and buf.dtype == arr.dtype:
            self._hit()
            buf[tuple(slice(w, w + s) for s in arr.shape)] = arr
            return buf
        self._miss(name)
        buf = np.pad(arr, w, constant_values=value)
        self._slots[name] = buf
        return buf

    def const(self, name: str, key: tuple, fn):
        """A step-invariant value (index arrays, ``np.arange``):
        computed once per ``key`` (the tuple of every scalar and size
        argument) and returned from cache until the key changes."""
        ent = self._consts.get(name)
        if ent is not None and ent[0] == key:
            self._hit()
            return ent[1]
        self._miss(name)
        val = fn()
        self._consts[name] = (key, val)
        return val
