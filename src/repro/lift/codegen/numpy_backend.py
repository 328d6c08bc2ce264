"""Vectorising NumPy backend for the LIFT IR.

Since this reproduction has no physical GPU, the executable target of the
code generator is NumPy: :func:`compile_numpy` lowers a kernel Lambda to
an :class:`~repro.lift.codegen.arena.ArenaProgram` — a straight-line list
of three-address ops over named workspace slots — and compiles the
*textual Python source* that program renders to (inspectable,
golden-testable) with ``exec``.  The lowering mirrors the OpenCL
generator's structure but trades the work-item loop for whole-array
operations:

* a flat ``MapGlb`` becomes a gather/compute/scatter pipeline over the
  contiguous work range — affine gathers are views or slice copies
  (``_ws.shift``), data-dependent ones ``_ws.take``, and boundary kernels
  (paper Listings 7–8) end in in-place stores (``next[idx] = ...``), which
  is exactly the memory behaviour the paper's in-place primitives encode;
* a 3-D ``MapGlb3D`` stencil becomes shifted-slice arithmetic over padded
  grids (``Pad3D`` keeps persistent ghost cells in ``_ws.pad3``);
* sequential inner maps / reductions over constant trip counts (the FD-MM
  ODE branches) are unrolled at generation time.

The generated functions receive the kernel's array/scalar arguments, the
size parameters and a trailing ``_ws`` workspace, write through the same
output/aliasing decisions as :mod:`repro.lift.memory`, and allocate no
full-grid array once the workspace is warm.
"""

from __future__ import annotations

from dataclasses import dataclass

import re

import numpy as np

from ..arith import ArithExpr, Cst, Var
from ..ast import (BinOp, Expr, FunCall, Lambda, Literal, Param, Select,
                   UnaryOp, UserFun)
from ..memory import allocate
from ..patterns import (AbstractMap, AbstractReduce, ArrayAccess,
                        ArrayAccess3, ArrayCons, Concat, Get, Id, Iota, Map,
                        MapGlb, MapGlb3D, MapSeq, Pad, Pad3D, Pattern, Skip,
                        Slide, Slide3D, Split, Join, ToGPU, ToHost,
                        TupleCons, WriteTo, Zip, Zip3D)
from ..types import (ArrayType, Bool, Double, Float, Int, LiftType, Long,
                     ScalarType)
from .arena import (AliasOp, ArenaProgram, CastOp, ConstOp, ElemStoreOp,
                    FullStoreOp, GidOp, IndexStoreOp, Pad3Op, PadOp, ScalarOp,
                    ShiftOp, Slice3Op, SliceStoreOp, TakeOp, UfuncOp,
                    VecExprOp, WhereOp, Workspace)
from .c_ast import NameGen


class NumpyCodegenError(Exception):
    """Raised for IR shapes the NumPy backend does not support."""


_IDENT = re.compile(r"^[A-Za-z_]\w*$")
_WORD = re.compile(r"[A-Za-z_]\w*")
#: a plain gather expression ``name[idx]`` (no nested brackets)
_GATHER = re.compile(r"^(\w+)\[([^\[\]]+)\]$")
#: a window access ``(ident)+(int)`` as produced by NpWindow/NpSlide
_WINDOW_IDX = re.compile(r"^\((\w+)\)\s*\+\s*\((-?\d+)\)$")
#: a rank-3 stencil-window view (NpSlide3.element's exact output shape)
_SLICE3 = re.compile(
    r"^(\w+)\[(-?\d+):\2\+(.+?), (-?\d+):\4\+(.+?), (-?\d+):\6\+(.+?)\]$")


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

    def __call__(self, *args, **sizes):
        return self.fn(*args, **sizes)


class _SteadyInfo:
    """Codegen-time tracking for the arena lowering.

    * ``vec`` — names whose runtime value is a full-grid array (any
      expression mentioning one is "vector" and must not allocate);
    * ``inv`` — vector names that are step-invariant (derivable from the
      scalar/size arguments alone), so their value can live in a keyed
      ``const`` slot;
    * ``affine`` — names whose value is ``_gid + offset`` for a scalar
      ``offset`` expression (enables slice/view gathers and scatters);
    * ``arrays`` — 1-D array names (params and pads) gathers may target;
    * ``written`` — arrays the kernel writes (views into them are
      unsafe; affine gathers copy instead);
    * ``n`` — the current ``MapGlb`` extent, as a Python expression.
    """

    def __init__(self, written: set[str], program: ArenaProgram):
        self.program = program
        self.vec: set[str] = set()
        self.inv: set[str] = set()
        self.affine: dict[str, str] = {}
        self.arrays: set[str] = set()
        self.arrays3: set[str] = set()
        self.written = written
        self.n: str | None = None
        #: temp name -> source arrays it (transitively) reads from
        self.roots: dict[str, frozenset[str]] = {}
        #: value-numbering table: (op, operands...) -> reusable temp name.
        #: Safe because emission is straight-line and every slot is
        #: written once per call; entries die when a source array is
        #: stored to (see :meth:`kill`).
        self.cse: dict[tuple, str] = {}

    def note(self, name: str, *parts: str) -> None:
        """Record which arrays feed ``name`` (for CSE invalidation)."""
        roots: set[str] = set()
        for p in parts:
            for tok in _WORD.findall(p):
                if tok in self.arrays:
                    roots.add(tok)
                roots |= self.roots.get(tok, frozenset())
        self.roots[name] = frozenset(roots)

    def reuse(self, key: tuple) -> str | None:
        return self.cse.get(key)

    def remember(self, key: tuple, name: str) -> None:
        self.cse[key] = name

    def kill(self, array: str) -> None:
        """An in-place store to ``array``: every memoised value that read
        it (directly or through a view/temp) is stale."""
        self.cse = {k: n for k, n in self.cse.items()
                    if array not in self.roots.get(n, frozenset())}


def _vec_expr(st: _SteadyInfo, s: str) -> bool:
    return any(t in st.vec for t in _WORD.findall(s))


def _inv_expr(st: _SteadyInfo, s: str) -> bool:
    """All vector names mentioned are step-invariant."""
    return all(t in st.inv for t in _WORD.findall(s) if t in st.vec)


def _strip_parens(s: str) -> str:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        inner = s[1:-1].strip()
        if _IDENT.match(inner):
            return inner
    return s


#: BinOp operator -> in-place-capable NumPy ufunc
_UFUNC_NAMES = {
    "+": "np.add", "-": "np.subtract", "*": "np.multiply",
    "/": "np.true_divide", "min": "np.minimum", "max": "np.maximum",
    "==": "np.equal", "!=": "np.not_equal", "<": "np.less",
    "<=": "np.less_equal", ">": "np.greater", ">=": "np.greater_equal",
}


# --- views (python-expression flavoured) ------------------------------------------

class NpView:
    def access(self, idx: str) -> object:
        raise NumpyCodegenError(f"{type(self).__name__} cannot be indexed")


class NpMem(NpView):
    def __init__(self, name: str):
        self.name = name

    def access(self, idx: str) -> str:
        return f"{self.name}[{idx}]"


class NpIota(NpView):
    def access(self, idx: str) -> str:
        return f"({idx})"


class NpZip(NpView):
    def __init__(self, components: list[NpView]):
        self.components = components

    def access(self, idx: str) -> "NpTuple":
        return NpTuple([c.access(idx) for c in self.components])


class NpTuple:
    def __init__(self, components: list):
        self.components = components

    def get(self, i: int):
        return self.components[i]


class NpRepeat(NpView):
    def __init__(self, value: str, n: int):
        self.value = value
        self.n = n

    def access(self, idx: str) -> str:
        return self.value


class NpSlide(NpView):
    def __init__(self, parent: NpView, size: int, step: int):
        self.parent = parent
        self.size = size
        self.step = step

    def access(self, idx: str) -> "NpWindow":
        off = f"({idx})*{self.step}" if self.step != 1 else f"({idx})"
        return NpWindow(self.parent, off, self.size)


class NpWindow(NpView):
    def __init__(self, parent: NpView, offset: str, size: int):
        self.parent = parent
        self.offset = offset
        self.size = size

    def access(self, idx: str):
        return self.parent.access(f"{self.offset}+({idx})")


# 3-D views: in the grid3d domain a "scalar per work-item" is a whole 3-D
# array expression; windows carry constant offsets into the padded grid.

class Np3D:
    pass


class NpMem3(Np3D):
    """An (nz, ny, nx) array variable; element (z,y,x) vectorises to itself."""

    def __init__(self, name: str, shape_names: tuple[str, str, str]):
        self.name = name
        self.shape_names = shape_names

    def whole(self) -> str:
        return self.name


class NpSlide3(Np3D):
    """Windows into a padded grid: element (dz,dy,dx) is a shifted slice."""

    def __init__(self, padded_name: str, shape_names: tuple[str, str, str],
                 size: int):
        self.padded_name = padded_name
        self.shape_names = shape_names  # of the *output* (window count) grid
        self.size = size

    def element(self, dz: int, dy: int, dx: int) -> str:
        nz, ny, nx = self.shape_names
        return (f"{self.padded_name}[{dz}:{dz}+{nz}, {dy}:{dy}+{ny}, "
                f"{dx}:{dx}+{nx}]")


class NpZip3(Np3D):
    def __init__(self, components: list):
        self.components = components


# --- generator ---------------------------------------------------------------------


class _Ctx:
    def __init__(self, names: NameGen, steady: _SteadyInfo):
        self.env: dict[str, object] = {}
        self.arith: dict[str, object] = {}  # name -> Var or Cst
        self.names = names
        self.memo: dict[int, object] = {}
        self.steady = steady

    def child(self) -> "_Ctx":
        c = _Ctx(self.names, self.steady)
        c.env = dict(self.env)
        c.arith = dict(self.arith)
        return c

    def add(self, op) -> None:
        """Record an arena-program op; its render IS the source line."""
        self.steady.program.ops.append(op)


def _temp(ctx: _Ctx, value: str, prefix: str = "t") -> str:
    """Name a value without allocating on the hot path.

    Scalar values keep the nested-expression form.  Vector values are
    lowered: plain gathers become arena ``shift``/``take`` calls,
    step-invariant expressions become keyed ``const`` slots, and pure
    aliases propagate their tracking marks.  Anything else is kept as an
    allocating NumPy expression (marked vector so consumers stay correct).
    """
    st = ctx.steady
    if not _vec_expr(st, value):
        name = ctx.names.fresh(prefix)
        ctx.add(ScalarOp(name, value))
        return name
    # pure alias of an existing vector name — copy its marks
    alias = _strip_parens(value)
    if _IDENT.match(alias) and alias in st.vec:
        name = ctx.names.fresh(prefix)
        ctx.add(AliasOp(name, alias))
        st.vec.add(name)
        st.note(name, alias)
        if alias in st.inv:
            st.inv.add(name)
        if alias in st.affine:
            st.affine[name] = st.affine[alias]
        return name
    m = _GATHER.match(value)
    if (m and m.group(1) in st.arrays
            and ":" not in m.group(2) and "," not in m.group(2)):
        base, idx = m.group(1), _strip_parens(m.group(2))
        off = None
        if _IDENT.match(idx) and idx in st.affine:
            off = st.affine[idx]
        else:
            w = _WINDOW_IDX.match(m.group(2).strip())
            if w and w.group(1) in st.affine:
                off = f"({st.affine[w.group(1)]} + ({w.group(2)}))"
        if off is not None and st.n is not None:
            name = ctx.names.fresh(prefix)
            copy = base in st.written
            ctx.add(ShiftOp(name, base, st.n, off, copy))
            st.vec.add(name)
            st.note(name, base)
            return name
        if _vec_expr(st, idx):
            if _inv_expr(st, idx) and not _IDENT.match(idx):
                cname = ctx.names.fresh("c")
                ctx.add(ConstOp(cname, idx))
                st.vec.add(cname)
                st.inv.add(cname)
                idx = cname
            name = ctx.names.fresh(prefix)
            ctx.add(TakeOp(name, base, idx))
            st.vec.add(name)
            st.note(name, base, idx)
            return name
        # scalar index: an element access, not a vector gather
        name = ctx.names.fresh(prefix)
        ctx.add(ScalarOp(name, value))
        return name
    if _inv_expr(st, value):
        name = ctx.names.fresh("c")
        ctx.add(ConstOp(name, value))
        st.vec.add(name)
        st.inv.add(name)
        return name
    m3 = _SLICE3.match(value)
    if m3 is not None and m3.group(1) in st.arrays3:
        # a shifted rank-3 stencil window: a pure view (non-allocating),
        # and structured enough for the fused-loop emitter to lower
        name = ctx.names.fresh(prefix)
        ctx.add(Slice3Op(name, m3.group(1),
                         (int(m3.group(2)), int(m3.group(4)),
                          int(m3.group(6))),
                         (m3.group(3), m3.group(5), m3.group(7))))
        st.vec.add(name)
        st.note(name, m3.group(1))
        return name
    # fallback: an allocating expression — not reached by the hot FDTD
    # kernels; keeps exotic IR shapes compiling correctly
    name = ctx.names.fresh(prefix)
    ctx.add(VecExprOp(name, value))
    st.vec.add(name)
    st.note(name, value)
    return name


def _render_arith(e: ArithExpr, ctx: _Ctx) -> str:
    return e.substitute(ctx.arith).to_c()


def compile_numpy(kernel: Lambda, name: str = "lift_kernel",
                  lower: bool = True, *, steady: bool = True) -> NumpyKernel:
    """Generate and compile the NumPy realisation of a kernel Lambda.

    The kernel is lowered to its :class:`ArenaProgram` (kept on the
    result as ``.program``, the artifact
    :func:`repro.lift.codegen.loops.compile_loops` also consumes) and the
    source that program renders to is compiled.  The generated function
    takes a trailing ``_ws`` workspace argument and performs zero
    full-grid allocations once the workspace is warm — persistent ghost
    cells instead of per-call ``np.pad``, view/slice gathers for affine
    indices, keyed ``const`` slots for step-invariant index arrays, and
    in-place ufunc calls for the arithmetic.  The first call of each slot
    *is* the plain NumPy operation; later calls re-run it into the kept
    buffer.

    ``steady`` is accepted only because the perf ledger's probe still
    passes ``steady=True``; there is no other emission, so ``False``
    raises ``ValueError``.
    """
    if not steady:
        raise ValueError("compile_numpy has one emission (the workspace "
                         "arena); the allocating emitter that steady=... "
                         "used to select was removed")
    from ..rewrite import lower_simple
    if lower:
        kernel = lower_simple(kernel)
    alloc = allocate(kernel)

    written = set(alloc.written_param_names)
    if alloc.allocates_output:
        written.add("out")
    program = ArenaProgram(name=name)
    info = _SteadyInfo(written, program)
    ctx = _Ctx(NameGen(), info)

    param_names = [p.name for p in kernel.params]
    for p in kernel.params:
        t = p.declared_type
        if isinstance(t, ArrayType):
            dims = t.shape()
            if len(dims) == 1:
                ctx.env[p.name] = NpMem(p.name)
                info.arrays.add(p.name)
            elif len(dims) == 3:
                sn = tuple(_dim_name(d, i, p.name, ctx) for i, d in enumerate(dims))
                ctx.env[p.name] = NpMem3(p.name, sn)  # type: ignore[arg-type]
                info.arrays3.add(p.name)
            else:
                raise NumpyCodegenError(f"unsupported rank for {p.name}")
            info.vec.add(p.name)
        else:
            ctx.env[p.name] = p.name
            ctx.arith[p.name] = Var(p.name)
    array_params = [p.name for p in kernel.params
                    if isinstance(p.declared_type, ArrayType)
                    and len(p.declared_type.shape()) == 1]

    size_params = list(alloc.size_params)
    for s in size_params:
        ctx.arith[s] = Var(s)

    returns_out = alloc.allocates_output
    out_name = "out" if returns_out else None
    if returns_out:
        non_aliased = [o for o in alloc.outputs if not o.is_in_place]
        if len(non_aliased) != 1:
            raise NumpyCodegenError("at most one fresh output supported")
        info.vec.add("out")

    result_expr = _gen_top(kernel.body, out_name, ctx, kernel)

    if returns_out:
        return_line = "return out"
    elif result_expr is not None:
        return_line = f"return {result_expr}"
    else:
        aliased = [o.aliased_param.name for o in alloc.outputs
                   if o.aliased_param is not None]
        return_line = f"return {aliased[0] if aliased else 'None'}"

    program.param_names = param_names
    program.size_params = size_params
    program.scalar_params = ([p.name for p in kernel.params
                              if not isinstance(p.declared_type, ArrayType)]
                             + size_params)
    program.array_params = array_params
    program.array3_params = [p.name for p in kernel.params
                             if isinstance(p.declared_type, ArrayType)
                             and len(p.declared_type.shape()) == 3]
    program.written = frozenset(info.written)
    program.returns_out = returns_out
    program.return_line = return_line
    program.vec = frozenset(info.vec)
    program.inv = frozenset(info.inv)
    program.alloc = alloc
    # the compiled source IS the program's rendering (pinned by
    # tests/lift/test_arena_program.py)
    source = program.render()

    namespace: dict[str, object] = {"np": np, "_Workspace": Workspace}
    exec(compile(source, f"<numpy backend:{name}>", "exec"), namespace)
    fn = namespace[name]
    return NumpyKernel(name=name, source=source, fn=fn,
                       param_names=param_names, size_params=size_params,
                       out_alloc=alloc, returns_out=returns_out,
                       program=program)


def _dim_name(d: ArithExpr, i: int, pname: str, ctx: _Ctx) -> str:
    c = d.as_constant()
    if c is not None:
        return str(c)
    # use the python shape at runtime: param.shape[i]
    return f"{pname}.shape[{i}]"


# --- top-level / write position ------------------------------------------------------


def _gen_top(expr: Expr, out_name: str | None, ctx: _Ctx, kernel: Lambda):
    if isinstance(expr, FunCall):
        fun = expr.fun
        if isinstance(fun, (ToGPU, ToHost, Id)):
            return _gen_top(expr.args[0], out_name, ctx, kernel)
        if isinstance(fun, TupleCons):
            for a in expr.args:
                _gen_top(a, None, ctx, kernel)
            return None
        if isinstance(fun, WriteTo):
            return _gen_writeto(expr, ctx)
        if isinstance(fun, MapGlb):
            return _gen_mapglb(expr, out_name, ctx)
        if isinstance(fun, MapGlb3D):
            return _gen_mapglb3d(expr, out_name, ctx)
    raise NumpyCodegenError(f"unsupported top-level expression {expr!r}")


def _eta_expand(f, elem_t: LiftType) -> Lambda:
    """Wrap a pattern/userfun map function as a typed one-param lambda."""
    from ..type_inference import infer as _infer
    import itertools
    p = Param(f"_eta_{next(_ETA_IDS)}", elem_t)
    call = FunCall(f, p)
    _infer(call)
    return Lambda([p], call)


import itertools as _it

_ETA_IDS = _it.count()


def _gen_mapglb(expr: FunCall, out_name: str | None, ctx: _Ctx):
    fun: MapGlb = expr.fun  # type: ignore[assignment]
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise NumpyCodegenError("MapGlb over non-array")
    n_py = _render_arith(arr_t.size, ctx)
    view = _gen(expr.args[0], ctx)
    st = ctx.steady
    # the slot name carries the extent expression so two MapGlbs of
    # different lengths never share a cached arange
    ctx.add(GidOp(n_py))
    st.vec.add("_gid")
    st.inv.add("_gid")
    st.affine["_gid"] = "0"
    st.n = n_py
    inner = ctx.child()
    elem = view.access("_gid") if isinstance(view, NpView) else None
    if elem is None:
        raise NumpyCodegenError("MapGlb input must be an array view")
    body_t = expr.type
    elem_t = body_t.elem if isinstance(body_t, ArrayType) else None
    f = fun.f
    if not isinstance(f, Lambda):
        f = _eta_expand(f, arr_t.elem)
    _bind(inner, f.params[0], elem)
    if isinstance(elem_t, ArrayType):
        # rows form: Concat/Skip scatter rows into the shared output
        _gen_rows(f.body, out_name, inner)
        return None
    val = _gen_scalar(f.body, inner)
    if val is None:
        return None  # body was pure effects (tuple of element writes)
    if out_name is None:
        # the body's own WriteTo already realised the update (in-place
        # element-write kernels return the written value)
        return None
    # _gid is the contiguous range 0..n-1: the scatter is a slice store,
    # with no duplicate-index hazard
    ctx.add(SliceStoreOp(out_name, "0", n_py, val,
                         lhs=f"{out_name}[0:{n_py}]"))
    st.kill(out_name)
    return None


def _gen_rows(body: Expr, out_name: str | None, ctx: _Ctx):
    """Write one (mostly-skipped) row per work-item: vectorised scatter."""
    # see through `let` chains (lambda applications)
    while isinstance(body, FunCall) and isinstance(body.fun, Lambda):
        inner = ctx.child()
        for p, a in zip(body.fun.params, body.args):
            _bind(inner, p, _gen(a, ctx))
        ctx = inner
        body = body.fun.body
    if isinstance(body, FunCall) and isinstance(body.fun, WriteTo):
        target = body.args[0]
        view = _gen(target, ctx)
        if not isinstance(view, NpMem):
            raise NumpyCodegenError("row WriteTo target must be a flat buffer")
        _gen_rows_into(body.args[1], view.name, ctx)
        return
    if out_name is None:
        raise NumpyCodegenError("row write without an output buffer")
    _gen_rows_into(body, out_name, ctx)


def _gen_rows_into(expr: Expr, buffer: str, ctx: _Ctx):
    if not (isinstance(expr, FunCall) and isinstance(expr.fun, Concat)):
        raise NumpyCodegenError("row form requires a Concat of Skip/data parts")
    offset_parts: list[str] = []
    for part in expr.args:
        if isinstance(part, FunCall) and isinstance(part.fun, Skip):
            offset_parts.append(f"({_render_arith(part.fun.length, ctx)})")
            continue
        base = "+".join(offset_parts) if offset_parts else "0"
        vals = _materialise_small(part, ctx)
        for j, v in enumerate(vals):
            idx = base if j == 0 else f"{base}+{j}"
            # a Skip length that is itself a vector slot makes this a
            # per-work-item scatter (indices injective by construction)
            if j == 0 and _strip_parens(base) in ctx.steady.vec:
                ctx.add(IndexStoreOp(buffer, idx, v))
            else:
                ctx.add(ElemStoreOp(buffer, idx, v))
        ctx.steady.kill(buffer)
        t = part.type
        if isinstance(t, ArrayType):
            offset_parts.append(f"({_render_arith(t.size, ctx)})")


def _materialise_small(expr: Expr, ctx: _Ctx) -> list[str]:
    """Evaluate a small constant-length array part to scalar expressions."""
    if isinstance(expr, FunCall):
        fun = expr.fun
        if isinstance(fun, ArrayCons):
            v = _gen_scalar(expr.args[0], ctx)
            return [v] * fun.n
        if isinstance(fun, (Map, MapSeq)):
            inner_vals = _materialise_small(expr.args[0], ctx)
            out = []
            for v in inner_vals:
                f = fun.f
                if isinstance(f, Lambda):
                    c = ctx.child()
                    _bind(c, f.params[0], v)
                    out.append(_gen_scalar(f.body, c))
                elif isinstance(f, UserFun):
                    out.append(f"_uf_{f.name}({v})")
                elif isinstance(f, Id):
                    out.append(v)
                else:
                    raise NumpyCodegenError("unsupported map function in row part")
            return out
    raise NumpyCodegenError(f"cannot materialise row part {expr!r}")


def _gen_writeto(expr: FunCall, ctx: _Ctx):
    target = expr.args[0]
    t = target
    while isinstance(t, FunCall) and isinstance(t.fun, (ToGPU, ToHost, Id)):
        t = t.args[0]
    if isinstance(t, FunCall) and isinstance(t.fun, ArrayAccess):
        view = _gen(t.args[0], ctx)
        if not isinstance(view, NpMem):
            raise NumpyCodegenError("element WriteTo target must be memory")
        st = ctx.steady
        if st.n is not None:
            off = _ast_affine(t.args[1], ctx)
            if off is not None:
                # affine scatter over the contiguous work range: a slice
                # store (indices are unique, so semantics are identical)
                val = _gen_scalar(expr.args[1], ctx)
                sl = f"{view.name}[({off}):({off})+({st.n})]"
                ctx.add(SliceStoreOp(view.name, off, st.n, val, lhs=sl))
                st.kill(view.name)
                return sl
        idx = _gen_scalar(t.args[1], ctx)
        val = _gen_scalar(expr.args[1], ctx)
        if _strip_parens(idx) in st.vec:
            ctx.add(IndexStoreOp(view.name, idx, val))
        else:
            ctx.add(ElemStoreOp(view.name, idx, val))
        st.kill(view.name)
        return f"{view.name}[{idx}]"
    view = _gen(t, ctx)
    if isinstance(view, NpMem):
        value = expr.args[1]
        # rows / map-over forms
        vt = value.type
        if isinstance(vt, ArrayType) and isinstance(vt.elem, ArrayType):
            if isinstance(value, FunCall) and isinstance(value.fun, MapGlb):
                return _gen_mapglb(value, view.name, ctx)
            raise NumpyCodegenError("unsupported WriteTo rows value")
        if isinstance(value, FunCall) and isinstance(value.fun, MapGlb):
            return _gen_mapglb(value, view.name, ctx)
        val = _gen_scalar(value, ctx)
        ctx.add(FullStoreOp(view.name, val, rank=1))
        ctx.steady.kill(view.name)
        return view.name
    if isinstance(view, NpMem3):
        value = expr.args[1]
        if isinstance(value, FunCall) and isinstance(value.fun, MapGlb3D):
            return _gen_mapglb3d(value, view.name, ctx)
        raise NumpyCodegenError("unsupported 3-D WriteTo value")
    raise NumpyCodegenError(f"unsupported WriteTo target {target!r}")


def _gen_mapglb3d(expr: FunCall, out_name: str | None, ctx: _Ctx):
    fun: MapGlb3D = expr.fun  # type: ignore[assignment]
    view = _gen(expr.args[0], ctx)
    f = fun.f
    if not isinstance(f, Lambda):
        t = expr.args[0].type
        elem_t = t
        for _ in range(3):
            if isinstance(elem_t, ArrayType):
                elem_t = elem_t.elem
        f = _eta_expand(f, elem_t)
    inner = ctx.child()
    if isinstance(view, NpZip3):
        _bind(inner, f.params[0], NpTuple([_np3_element(c) for c in view.components]))
    elif isinstance(view, NpMem3):
        _bind(inner, f.params[0], view.whole())
    else:
        raise NumpyCodegenError("MapGlb3D input must be a 3-D view")
    val = _gen_scalar(f.body, inner)
    if out_name is None:
        raise NumpyCodegenError("MapGlb3D needs an output grid")
    ctx.add(FullStoreOp(out_name, val, rank=3))
    ctx.steady.kill(out_name)
    return None


def _np3_element(c):
    if isinstance(c, NpMem3):
        return c.whole()
    if isinstance(c, NpSlide3):
        return c
    raise NumpyCodegenError(f"unsupported Zip3D component {c!r}")


# --- value generation -----------------------------------------------------------------


def _bind(ctx: _Ctx, p: Param, value, prefer: str | None = None):
    if isinstance(value, str) and not _IDENT.match(value):
        tmp = _temp(ctx, value, prefer or p.name)
        value = tmp
    if isinstance(value, str) and _IDENT.match(value):
        ctx.arith[p.name] = Var(value)
    ctx.env[p.name] = value


def _bind_const(ctx: _Ctx, p: Param, value: int):
    ctx.env[p.name] = str(value)
    ctx.arith[p.name] = Cst(value)


def _gen_scalar(expr: Expr, ctx: _Ctx):
    v = _gen(expr, ctx)
    if v is None or isinstance(v, str):
        return v
    raise NumpyCodegenError(f"expected a scalar expression, got {v!r}")


def _gen(expr: Expr, ctx: _Ctx):
    if isinstance(expr, Param):
        if expr.name not in ctx.env:
            raise NumpyCodegenError(f"unbound parameter {expr.name!r}")
        return ctx.env[expr.name]
    if isinstance(expr, Literal):
        if expr.declared_type in (Float, Double):
            return repr(float(expr.value))
        return str(int(expr.value))

    key = id(expr)
    if key in ctx.memo:
        return ctx.memo[key]
    value = _gen_uncached(expr, ctx)
    if isinstance(value, str) and not _IDENT.match(value) \
            and isinstance(expr, FunCall) and isinstance(expr.type, ScalarType) \
            and not isinstance(expr.fun, WriteTo):
        value = _temp(ctx, value)
    ctx.memo[key] = value
    return value


def _gen_uncached(expr: Expr, ctx: _Ctx):
    st = ctx.steady
    if isinstance(expr, BinOp):
        a, b = _gen_scalar(expr.lhs, ctx), _gen_scalar(expr.rhs, ctx)
        if expr.type is Float and expr.op in ("+", "-", "*", "/",
                                              "min", "max"):
            # OpenCL evaluates a mixed int/float expression in the float
            # operand's width; NumPy instead promotes int32 x f32 to
            # float64, silently upcasting single-precision programs.
            # Double needs no cast: promotion to f64 IS the exact cast.
            a = _coerce_f32(expr.lhs, a, ctx)
            b = _coerce_f32(expr.rhs, b, ctx)
        if expr.op == "min":
            plain = f"np.minimum({a}, {b})"
        elif expr.op == "max":
            plain = f"np.maximum({a}, {b})"
        else:
            py_op = {"==": "==", "!=": "!=", "<": "<", "<=": "<=",
                     ">": ">", ">=": ">=", "+": "+", "-": "-",
                     "*": "*", "/": "/"}[expr.op]
            plain = f"({a} {py_op} {b})"
        if not _vec_expr(st, plain):
            return plain
        return _steady_binop(ctx, st, expr.op, a, b, plain)
    if isinstance(expr, UnaryOp):
        v = _gen_scalar(expr.operand, ctx)
        # toFloat follows the declared IR type: Float is f32 (matching
        # the OpenCL backend's `(float)` cast); only Double renders f64.
        # toInt stays int64 on purpose — its results feed indexing.
        float_dt = "np.float64" if expr.type is Double else "np.float32"
        plain = {"neg": f"(-({v}))", "sqrt": f"np.sqrt({v})",
                  "abs": f"np.abs({v})",
                  "toInt": f"np.asarray({v}).astype(np.int64)",
                  "toFloat": f"np.asarray({v}).astype({float_dt})"}[expr.op]
        if not _vec_expr(st, plain):
            return plain
        return _steady_unop(ctx, st, expr.op, v, plain, float_dt)
    if isinstance(expr, Select):
        c = _gen_scalar(expr.cond, ctx)
        t = _gen_scalar(expr.if_true, ctx)
        f = _gen_scalar(expr.if_false, ctx)
        if expr.type is Float:
            t = _coerce_f32(expr.if_true, t, ctx)
            f = _coerce_f32(expr.if_false, f, ctx)
        plain = f"np.where({c}, {t}, {f})"
        if not _vec_expr(st, plain):
            return plain
        if _inv_expr(st, plain):
            return _steady_const(ctx, st, plain)
        hit = st.reuse(("where", c, t, f))
        if hit is not None:
            return hit
        name = ctx.names.fresh("t")
        ctx.add(WhereOp(name, c, t, f))
        st.vec.add(name)
        st.note(name, c, t, f)
        st.remember(("where", c, t, f), name)
        return name
    if isinstance(expr, FunCall):
        return _gen_call(expr, ctx)
    raise NumpyCodegenError(f"cannot generate {expr!r}")


def _steady_const(ctx: _Ctx, st: _SteadyInfo, plain: str) -> str:
    """Hoist a step-invariant vector expression into a keyed const slot."""
    name = ctx.names.fresh("c")
    ctx.add(ConstOp(name, plain))
    st.vec.add(name)
    st.inv.add(name)
    return name


def _steady_binop(ctx: _Ctx, st: _SteadyInfo, op: str, a: str, b: str,
                  plain: str) -> str:
    if _inv_expr(st, plain):
        name = _steady_const(ctx, st, plain)
    else:
        hit = st.reuse(("binop", op, a, b))
        if hit is not None:
            return hit
        name = ctx.names.fresh("t")
        ctx.add(UfuncOp(name, _UFUNC_NAMES[op], (a, b)))
        st.vec.add(name)
        st.note(name, a, b)
        st.remember(("binop", op, a, b), name)
    if op in ("+", "-"):
        # propagate affine offsets (`_gid + scalar`) so downstream
        # gathers can become views/slices
        sa, sb = _strip_parens(a), _strip_parens(b)
        if sa in st.affine and not _vec_expr(st, b):
            st.affine[name] = f"({st.affine[sa]} {op} ({b}))"
        elif op == "+" and sb in st.affine and not _vec_expr(st, a):
            st.affine[name] = f"(({a}) + {st.affine[sb]})"
    return name


def _steady_unop(ctx: _Ctx, st: _SteadyInfo, op: str, v: str, plain: str,
                 float_dt: str) -> str:
    if _inv_expr(st, plain):
        return _steady_const(ctx, st, plain)
    hit = st.reuse(("unop", op, float_dt, v))
    if hit is not None:
        return hit
    name = ctx.names.fresh("t")
    if op == "toInt":
        ctx.add(CastOp(name, v, "np.int64"))
    elif op == "toFloat":
        ctx.add(CastOp(name, v, float_dt))
    else:
        uf = {"neg": "np.negative", "sqrt": "np.sqrt", "abs": "np.abs"}[op]
        ctx.add(UfuncOp(name, uf, (v,)))
    st.vec.add(name)
    st.note(name, v)
    st.remember(("unop", op, float_dt, v), name)
    return name


def _coerce_f32(operand: Expr, v: str, ctx: _Ctx) -> str:
    """Render an Int-typed operand of an f32-typed operation as float32
    (the dtype-preservation audit: without this, single-precision
    programs silently run their int-mixing subexpressions in float64)."""
    if operand.type not in (Int, Long):
        return v
    plain = f"np.asarray({v}).astype(np.float32)"
    st = ctx.steady
    if not _vec_expr(st, v):
        return plain
    if _inv_expr(st, v):
        return _steady_const(ctx, st, plain)
    hit = st.reuse(("unop", "toFloat", "np.float32", v))
    if hit is not None:
        return hit
    name = ctx.names.fresh("t")
    ctx.add(CastOp(name, v, "np.float32"))
    st.vec.add(name)
    st.note(name, v)
    st.remember(("unop", "toFloat", "np.float32", v), name)
    return name


def _gen_call(expr: FunCall, ctx: _Ctx):
    fun = expr.fun

    if isinstance(fun, Lambda):
        inner = ctx.child()
        for p, a in zip(fun.params, expr.args):
            _bind(inner, p, _gen(a, ctx))
        return _gen(fun.body, inner)
    if isinstance(fun, UserFun):
        args = [_gen_scalar(a, ctx) for a in expr.args]
        body = _inline_userfun(fun, args)
        return body

    if isinstance(fun, Get):
        tup = _gen(expr.args[0], ctx)
        if not isinstance(tup, NpTuple):
            raise NumpyCodegenError("Get on non-tuple")
        return tup.get(fun.i)

    if isinstance(fun, Zip):
        return NpZip([_gen(a, ctx) for a in expr.args])

    if isinstance(fun, Zip3D):
        return NpZip3([_gen(a, ctx) for a in expr.args])

    if isinstance(fun, Iota):
        return NpIota()

    if isinstance(fun, ArrayAccess):
        view = _gen(expr.args[0], ctx)
        st = ctx.steady
        if (isinstance(view, NpMem) and view.name in st.arrays
                and st.n is not None):
            off = _ast_affine(expr.args[1], ctx)
            if off is not None:
                # affine gather: a view (or a slice copy when the kernel
                # writes the base array) — the index array is never built
                name = ctx.names.fresh("t")
                copy = view.name in st.written
                ctx.add(ShiftOp(name, view.name, st.n, off, copy))
                st.vec.add(name)
                st.note(name, view.name)
                return name
        idx = _gen_scalar(expr.args[1], ctx)
        if isinstance(view, NpView):
            return view.access(idx)
        if isinstance(view, list):
            try:
                return view[int(idx)]
            except ValueError:
                raise NumpyCodegenError(
                    "indexing a private array needs a constant index") from None
        raise NumpyCodegenError("ArrayAccess on non-view")

    if isinstance(fun, ArrayAccess3):
        view = _gen(expr.args[0], ctx)
        idxs = [expr.args[i] for i in (1, 2, 3)]
        consts = [_const_of(i) for i in idxs]
        if isinstance(view, NpSlide3):
            if any(c is None for c in consts):
                raise NumpyCodegenError(
                    "ArrayAccess3 into a window needs constant offsets")
            return view.element(*consts)  # type: ignore[arg-type]
        raise NumpyCodegenError("ArrayAccess3 on unsupported view")

    if isinstance(fun, Slide):
        return NpSlide(_np_view(_gen(expr.args[0], ctx)), fun.size, fun.step)

    if isinstance(fun, Pad):
        view = _gen(expr.args[0], ctx)
        if not isinstance(view, NpMem):
            # materialise the parent first
            raise NumpyCodegenError("Pad over non-memory view")
        st = ctx.steady
        # persistent ghost cells: halo written once at allocation,
        # interior refreshed by slice assignment on later calls
        padded = ctx.names.fresh("pad")
        ctx.add(PadOp(padded, view.name, str(fun.left), str(fun.right),
                      repr(float(fun.value.value))))
        st.vec.add(padded)
        st.arrays.add(padded)
        st.note(padded, view.name)
        return NpMem(padded)

    if isinstance(fun, Pad3D):
        view = _gen(expr.args[0], ctx)
        if not isinstance(view, NpMem3):
            raise NumpyCodegenError("Pad3D over non-memory view")
        st = ctx.steady
        padded = ctx.names.fresh("pad3")
        ctx.add(Pad3Op(padded, view.name, str(fun.left),
                       repr(float(fun.value.value))))
        st.vec.add(padded)
        st.note(padded, view.name)
        return NpMem3(padded, view.shape_names)

    if isinstance(fun, Slide3D):
        view = _gen(expr.args[0], ctx)
        if not isinstance(view, NpMem3):
            raise NumpyCodegenError("Slide3D over non-memory view")
        t = expr.type  # Array^3 of windows: shape = counts
        dims = t.shape()
        shape_names = tuple(_dim_render(d, ctx) for d in dims[:3])
        return NpSlide3(view.name, shape_names, fun.size)  # type: ignore[arg-type]

    if isinstance(fun, (Id, ToGPU, ToHost)):
        return _gen(expr.args[0], ctx)

    if isinstance(fun, ArrayCons):
        v = _gen_scalar(expr.args[0], ctx)
        return NpRepeat(v, fun.n)

    if isinstance(fun, AbstractReduce):
        return _gen_reduce(expr, ctx)

    if isinstance(fun, (MapSeq, Map)):
        return _gen_seq_map(expr, ctx)

    if isinstance(fun, WriteTo):
        return _gen_writeto(expr, ctx)

    if isinstance(fun, TupleCons):
        for a in expr.args:
            _gen(a, ctx)
        return None

    raise NumpyCodegenError(f"pattern {fun.name} unsupported in value position")


def _ast_affine(e: Expr, ctx: _Ctx) -> str | None:
    """Offset of an index expression relative to ``_gid``, if affine.

    Walks ``Param`` references (through the binding environment) and
    ``+``/``-`` chains with one affine side and one scalar side, and
    returns the offset as a Python expression string — without ever
    materialising the index array.
    """
    st = ctx.steady
    if isinstance(e, Param):
        v = ctx.env.get(e.name)
        if isinstance(v, str):
            s = _strip_parens(v)
            if s in st.affine:
                return st.affine[s]
        return None
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        lhs = _ast_affine(e.lhs, ctx)
        rhs = _ast_affine(e.rhs, ctx)
        if lhs is not None and rhs is None:
            s = _gen_scalar(e.rhs, ctx)
            if isinstance(s, str) and not _vec_expr(st, s):
                return f"({lhs} {e.op} ({s}))"
        elif e.op == "+" and rhs is not None and lhs is None:
            s = _gen_scalar(e.lhs, ctx)
            if isinstance(s, str) and not _vec_expr(st, s):
                return f"(({s}) + {rhs})"
    return None


def _inline_userfun(uf: UserFun, args: list[str]) -> str:
    """Inline simple `return <expr>;` user functions as Python expressions."""
    body = uf.body.strip()
    if body.startswith("return") and body.endswith(";"):
        e = body[len("return"):-1].strip()
        for pn, a in zip(uf.param_names, args):
            e = re.sub(rf"\b{re.escape(pn)}\b", f"({a})", e)
        return f"({e})"
    raise NumpyCodegenError(f"cannot inline user function {uf.name}")


def _np_view(v) -> NpView:
    if isinstance(v, NpView):
        return v
    raise NumpyCodegenError(f"expected array view, got {v!r}")


def _const_of(e: Expr) -> int | None:
    if isinstance(e, Literal):
        return int(e.value)
    return None


def _dim_render(d: ArithExpr, ctx: _Ctx) -> str:
    c = d.as_constant()
    if c is not None:
        return str(c)
    return f"({_render_arith(d, ctx)})"


def _gen_reduce(expr: FunCall, ctx: _Ctx) -> str:
    fun: AbstractReduce = expr.fun  # type: ignore[assignment]
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise NumpyCodegenError("Reduce over non-array")
    n = arr_t.size.as_constant()
    view_or_elems = _reduce_elements(expr.args[0], n, ctx)
    acc = _gen_scalar(fun.init, ctx)
    for elem in view_or_elems:
        if isinstance(fun.f, Lambda):
            inner = ctx.child()
            _bind(inner, fun.f.params[0], acc)
            _bind(inner, fun.f.params[1], elem)
            acc = _gen_scalar(fun.f.body, inner)
        elif isinstance(fun.f, UserFun):
            acc = _inline_userfun(fun.f, [acc, elem])
        else:
            raise NumpyCodegenError("unsupported reduce function")
        acc = _temp(ctx, acc, "acc")
    return acc


def _reduce_elements(arr_expr: Expr, n: int | None, ctx: _Ctx) -> list[str]:
    """Unrolled element expressions of a constant-length array."""
    if n is None:
        raise NumpyCodegenError("Reduce needs a constant length in the NumPy "
                                "backend (stencil windows / ODE branches)")
    # Map over Iota / window views unrolls cleanly
    view = _gen(arr_expr, ctx)
    if isinstance(view, NpView):
        return [_as_scalar(view.access(str(j))) for j in range(n)]
    if isinstance(view, list):
        return view
    raise NumpyCodegenError(f"cannot unroll reduce input {view!r}")


def _as_scalar(v) -> str:
    if isinstance(v, str):
        return v
    raise NumpyCodegenError(f"expected scalar element, got {v!r}")


def _gen_seq_map(expr: FunCall, ctx: _Ctx):
    """Sequential map in value position: unroll to a list of scalar exprs."""
    fun: AbstractMap = expr.fun  # type: ignore[assignment]
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise NumpyCodegenError("map over non-array")
    n = arr_t.size.as_constant()
    if n is None:
        raise NumpyCodegenError("value-position map needs constant length")
    view = _gen(expr.args[0], ctx)
    out: list[str] = []
    for j in range(n):
        if isinstance(view, NpView):
            elem = view.access(str(j))
        elif isinstance(view, list):
            elem = view[j]
        else:
            raise NumpyCodegenError("unsupported map input")
        f = fun.f
        if isinstance(f, Lambda):
            inner = ctx.child()
            if isinstance(view, NpIota) or (
                    isinstance(expr.args[0], FunCall)
                    and isinstance(expr.args[0].fun, Iota)):
                _bind_const(inner, f.params[0], j)
            else:
                _bind(inner, f.params[0], elem)
            r = _gen(f.body, inner)
            out.append(r if isinstance(r, str) else "None")
        elif isinstance(f, UserFun):
            out.append(_inline_userfun(f, [_as_scalar(elem)]))
        elif isinstance(f, Id):
            out.append(_as_scalar(elem))
        else:
            raise NumpyCodegenError("unsupported map function")
    return out
