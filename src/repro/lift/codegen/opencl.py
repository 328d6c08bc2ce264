"""OpenCL C kernel generation from lowered LIFT IR.

The generator follows the paper's workflow (Fig. 3): memory allocation
(:mod:`repro.lift.memory`), view creation (:mod:`repro.lift.views`), then
code emission.  It supports the lowered pattern subset exercised by the room
acoustics programs and the paper's examples:

* ``MapGlb`` over ``Zip`` / ``Iota`` / parameter arrays → a strided
  global-id loop;
* ``MapGlb3D`` over ``Zip3D`` of padded/slided grids → a guarded 3-D
  work-item;
* ``MapSeq`` / ``ReduceSeq`` → sequential loops (private-memory
  temporaries for value-position maps, mirroring the paper's ``_g1[MB]``);
* the new primitives — ``WriteTo`` (output-view redirection, in-place),
  ``Concat``/``Skip`` (output offsets, no code for skips), ``ArrayCons``;
* scalar expressions and ``UserFun`` calls.

Anything outside this subset raises :class:`CodegenError` — the same
honesty contract as upstream LIFT, which only generates code for lowered,
well-formed programs.
"""

from __future__ import annotations

import re
from contextlib import nullcontext

from ... import obs as _obs
from ..arith import ArithExpr, Var
from ..ast import (BinOp, Expr, FunCall, Lambda, Literal, Param, Select,
                   UnaryOp, UserFun)
from ..memory import allocate
from ..patterns import (AbstractMap, AbstractReduce, ArrayAccess,
                        ArrayAccess3, ArrayCons, Concat, Get, Id, Iota, Map,
                        MapGlb, MapGlb3D, MapLcl, MapSeq, MapWrg, Pad, Pad3D,
                        Pattern, Skip, Slide, Slide3D, Split, Join, ToGPU,
                        ToHost, TupleCons, WriteTo, Zip, Zip3D)
from ..types import (ArrayType, Bool, Double, Float, Int, LiftType, Long,
                     ScalarType)
from ..views import (InView, OutElement, OutMem, OutMem3D, OutOffset,
                     OutView, View3D, ViewConstant, ViewIota, ViewJoin,
                     ViewMem, ViewMem3D, ViewPad, ViewPad3D, ViewSlide,
                     ViewSlide3D, ViewSplit, ViewTuple, ViewZip, ViewZip3D,
                     in_view_to_out, paren)
from .c_ast import CBlock, NameGen
from .plan import KernelAllocation, KernelSource, ParamInfo


class CodegenError(Exception):
    """Raised for IR shapes the OpenCL generator does not support."""


_C_TYPES = {Float.name: "float", Double.name: "double",
            Int.name: "int", Long.name: "long", Bool.name: "int"}

_IDENT = re.compile(r"^[A-Za-z_]\w*$")


def c_type(t: LiftType) -> str:
    if isinstance(t, ScalarType):
        return _C_TYPES[t.name]
    raise CodegenError(f"no C type for {t!r}")


def c_literal(value, t: ScalarType) -> str:
    if t == Float:
        return f"{float(value)}f"
    if t == Double:
        return f"{float(value)}"
    return str(int(value))


class _Ctx:
    """Code-generation context: bindings, arithmetic substitutions, block."""

    def __init__(self, block: CBlock, names: NameGen):
        self.env: dict[str, object] = {}
        self.arith: dict[str, Var] = {}
        self.block = block
        self.names = names
        self.userfuns: dict[str, UserFun] = {}
        self.memo: dict[int, object] = {}

    def child(self, block: CBlock) -> "_Ctx":
        c = _Ctx(block, self.names)
        c.env = dict(self.env)
        c.arith = dict(self.arith)
        c.userfuns = self.userfuns
        c.memo = {}  # new bindings invalidate sharing
        return c


def _size_c(e: ArithExpr, ctx: _Ctx) -> str:
    return e.substitute(ctx.arith).to_c()


def _shape3(t: LiftType) -> tuple[ArithExpr, ArithExpr, ArithExpr]:
    if not isinstance(t, ArrayType):
        raise CodegenError(f"expected 3-D array type, got {t!r}")
    dims = t.shape()
    if len(dims) < 3:
        raise CodegenError(f"expected 3-D array type, got {t!r}")
    return dims[0], dims[1], dims[2]


def compile_kernel(kernel: Lambda, name: str = "lift_kernel",
                   lower: bool = True) -> KernelSource:
    """Generate OpenCL C for a kernel Lambda.

    ``lower=True`` first applies the default lowering strategy
    (:func:`repro.lift.rewrite.lower_simple`): outermost Map → MapGlb,
    inner maps/reductions sequential.

    When an observability session is active the compilation phases
    (rewrite, type inference, memory allocation, emission) are traced as
    child spans of ``lift.compile_kernel``, each advancing the modelled
    clock by its real host wall time.
    """
    o = _obs.get()
    if o is None:
        return _compile_kernel(kernel, name, lower, None)
    with o.tracer.span("lift.compile_kernel", "compile", kernel=name):
        return _compile_kernel(kernel, name, lower, o)


def _compile_kernel(kernel: Lambda, name: str, lower: bool,
                    o) -> KernelSource:
    if lower:
        from ..rewrite import lower_simple
        if o is not None:
            with o.tracer.span("lift.rewrite", "compile", wall=True):
                kernel = lower_simple(kernel)
        else:
            kernel = lower_simple(kernel)
    if o is not None:
        # explicit (idempotent) type-inference pass so its cost shows up
        # as its own phase; allocate() re-checks below either way
        from ..type_inference import infer
        with o.tracer.span("lift.type_inference", "compile", wall=True):
            infer(kernel)
        with o.tracer.span("lift.memory_alloc", "compile", wall=True):
            alloc = allocate(kernel)
    else:
        alloc = allocate(kernel)  # also type-checks
    with (o.tracer.span("lift.emit", "compile", wall=True)
          if o is not None else nullcontext()):
        return _emit_kernel(kernel, name, alloc)


def _emit_kernel(kernel: Lambda, name: str,
                 alloc: KernelAllocation) -> KernelSource:
    names = NameGen()
    body_block = CBlock(indent=1)
    ctx = _Ctx(body_block, names)

    params: list[ParamInfo] = []
    for p in kernel.params:
        t = p.declared_type
        if isinstance(t, ArrayType):
            sc = t.base_scalar
            params.append(ParamInfo(p.name, f"__global {c_type(sc)}* {p.name}",
                                    True, sc))
            dims = t.shape()
            if len(dims) == 1:
                ctx.env[p.name] = ViewMem(p.name, sc, t.size.to_c())
            elif len(dims) == 3:
                ctx.env[p.name] = ViewMem3D(p.name, sc, dims[0].to_c(),
                                            dims[1].to_c(), dims[2].to_c())
            else:
                raise CodegenError(f"unsupported parameter rank for {p.name}")
        elif isinstance(t, ScalarType):
            params.append(ParamInfo(p.name, f"{c_type(t)} {p.name}", False, t))
            ctx.env[p.name] = p.name
            ctx.arith[p.name] = Var(p.name)
        else:
            raise CodegenError(f"unsupported kernel parameter type {t!r}")

    for s in alloc.size_params:
        params.append(ParamInfo(s, f"int {s}", False, Int))
        ctx.arith[s] = Var(s)

    out_views: list[OutView] = []
    if alloc.allocates_output:
        non_aliased = [o for o in alloc.outputs if not o.is_in_place]
        if len(non_aliased) != 1:
            raise CodegenError("at most one freshly-allocated output supported")
        sc = non_aliased[0].scalar
        params.append(ParamInfo("out", f"__global {c_type(sc)}* out", True, sc))
        body_t = kernel.body.type
        if isinstance(body_t, ArrayType) and len(body_t.shape()) >= 3:
            d = body_t.shape()
            out_views.append(OutMem3D("out", sc, d[0].to_c(), d[1].to_c(), d[2].to_c()))
        else:
            out_views.append(OutMem("out", sc))
    _gen_write(kernel.body, out_views[0] if out_views else None, ctx)

    sig = ", ".join(p.c_decl for p in params)
    lines: list[str] = []
    for uf in ctx.userfuns.values():
        args = ", ".join(f"{c_type(t)} {n}"
                         for t, n in zip(uf.in_types, uf.param_names))
        lines.append(f"{c_type(uf.out_type)} {uf.name}({args}) {{ {uf.body} }}")
    if lines:
        lines.append("")
    lines.append(f"__kernel void {name}({sig}) {{")
    lines.append(body_block.render())
    lines.append("}")

    gsize = _global_size_of(kernel)
    return KernelSource(name=name, source="\n".join(lines), params=params,
                        allocation=alloc, size_params=alloc.size_params,
                        global_size=gsize, kernel_lambda=kernel)


def _global_size_of(kernel: Lambda) -> ArithExpr | None:
    """Launch size: the length of the outermost parallel map's input."""
    expr = kernel.body
    while isinstance(expr, FunCall):
        if isinstance(expr.fun, (MapGlb, MapGlb3D, Map)):
            t = expr.args[0].type
            if isinstance(t, ArrayType):
                dims = t.shape()
                total = dims[0]
                if isinstance(expr.fun, (MapGlb3D,)) and len(dims) >= 3:
                    total = dims[0] * dims[1] * dims[2]
                return total
            return None
        if isinstance(expr.fun, (WriteTo,)):
            expr = expr.args[1]
            continue
        if isinstance(expr.fun, (ToGPU, ToHost, Id)):
            expr = expr.args[0]
            continue
        if isinstance(expr.fun, TupleCons):
            expr = expr.args[0]
            continue
        break
    return None


# --- value generation -----------------------------------------------------------


def _bind(ctx: _Ctx, p: Param, value, prefer: str | None = None):
    """Bind a lambda parameter, introducing a C temporary for compound scalars."""
    if isinstance(value, str) and not _IDENT.match(value):
        t = p.declared_type
        tmp = ctx.names.fresh(prefer or p.name)
        ctx.block.declare(c_type(t), tmp, value)
        value = tmp
    if isinstance(value, str) and _IDENT.match(value):
        ctx.arith[p.name] = Var(value)
    ctx.env[p.name] = value


def _apply_fun(fun, arg_values: list, ctx: _Ctx, out: OutView | None = None,
               arg_types: list[LiftType] | None = None):
    """Apply a function to already-generated values; returns value or writes."""
    if isinstance(fun, Lambda):
        inner = ctx.child(ctx.block)
        for p, v in zip(fun.params, arg_values):
            _bind(inner, p, v)
        if out is None:
            return _gen(fun.body, inner)
        return _gen_write(fun.body, out, inner)
    if isinstance(fun, UserFun):
        ctx.userfuns.setdefault(fun.name, fun)
        call = f"{fun.name}({', '.join(str(a) for a in arg_values)})"
        if out is None:
            return call
        raise CodegenError("UserFun cannot be a write target")
    if isinstance(fun, Pattern):
        # Eta-expand: synthesise a typed application so patterns used as map
        # functions (e.g. Map(ReduceSeq(add, 0))) generate through the same
        # path as explicit lambdas.
        if arg_types is None or len(arg_types) != len(arg_values):
            raise CodegenError(
                f"pattern {fun!r} as a function needs argument types")
        from ..type_inference import infer as _infer
        params = [Param(ctx.names.fresh("eta"), t) for t in arg_types]
        call = FunCall(fun, *params)
        _infer(call)
        inner = ctx.child(ctx.block)
        for p, v in zip(params, arg_values):
            _bind(inner, p, v)
        if out is None:
            return _gen(call, inner)
        return _gen_write(call, out, inner)
    raise CodegenError(f"cannot apply {fun!r}")


def _gen(expr: Expr, ctx: _Ctx):
    """Generate a value: a C expression string or an input view."""
    if isinstance(expr, Param):
        if expr.name not in ctx.env:
            raise CodegenError(f"unbound parameter {expr.name!r}")
        return ctx.env[expr.name]
    if isinstance(expr, Literal):
        return c_literal(expr.value, expr.declared_type)

    key = id(expr)
    if key in ctx.memo:
        return ctx.memo[key]
    value = _gen_uncached(expr, ctx)
    # Share non-trivial scalar results through a temporary (LIFT emits the
    # same `float tmp_k = ...;` chains — see paper §III-A).
    if isinstance(value, str) and not _IDENT.match(value) and \
            isinstance(expr.type, ScalarType) and _is_shared_worthy(expr):
        tmp = ctx.names.fresh("tmp")
        ctx.block.declare(c_type(expr.type), tmp, value)
        value = tmp
    ctx.memo[key] = value
    return value


def _is_shared_worthy(expr: Expr) -> bool:
    """Only FunCall results get their own temporary (mirrors LIFT output)."""
    return isinstance(expr, FunCall)


def _gen_uncached(expr: Expr, ctx: _Ctx):
    if isinstance(expr, BinOp):
        a, b = _gen(expr.lhs, ctx), _gen(expr.rhs, ctx)
        if not isinstance(a, str) or not isinstance(b, str):
            raise CodegenError(f"binary op on non-scalar values")
        if expr.op == "min":
            return f"min({a}, {b})"
        if expr.op == "max":
            return f"max({a}, {b})"
        return f"({a} {expr.op} {b})"
    if isinstance(expr, UnaryOp):
        v = _gen(expr.operand, ctx)
        if expr.op == "neg":
            return f"(-{paren(str(v))})"
        if expr.op == "sqrt":
            return f"sqrt({v})"
        if expr.op == "abs":
            return f"fabs({v})"
        if expr.op == "toInt":
            return f"(int)({v})"
        if expr.op == "toFloat":
            return f"(float)({v})"
        raise CodegenError(f"unknown unary op {expr.op}")
    if isinstance(expr, Select):
        c = _gen(expr.cond, ctx)
        t = _gen(expr.if_true, ctx)
        f = _gen(expr.if_false, ctx)
        return f"(({c}) ? {t} : {f})"
    if isinstance(expr, FunCall):
        return _gen_call(expr, ctx)
    raise CodegenError(f"cannot generate value for {expr!r}")


def _gen_call(expr: FunCall, ctx: _Ctx):
    fun = expr.fun

    if isinstance(fun, Lambda):
        return _apply_fun(fun, [_gen(a, ctx) for a in expr.args], ctx)
    if isinstance(fun, UserFun):
        return _apply_fun(fun, [_gen(a, ctx) for a in expr.args], ctx)

    if isinstance(fun, Get):
        tup = _gen(expr.args[0], ctx)
        if not isinstance(tup, ViewTuple):
            raise CodegenError("Get applied to non-tuple value")
        return tup.get(fun.i)

    if isinstance(fun, Zip):
        return ViewZip([_as_view(_gen(a, ctx)) for a in expr.args])

    if isinstance(fun, Zip3D):
        return ViewZip3D([_as_view3(_gen(a, ctx)) for a in expr.args])

    if isinstance(fun, Iota):
        return ViewIota()

    if isinstance(fun, ArrayAccess):
        view = _as_view(_gen(expr.args[0], ctx))
        idx = _gen(expr.args[1], ctx)
        if not isinstance(idx, str):
            raise CodegenError("ArrayAccess index must be scalar")
        return view.access(idx)

    if isinstance(fun, ArrayAccess3):
        view = _gen(expr.args[0], ctx)
        idxs = [_gen(expr.args[i], ctx) for i in (1, 2, 3)]
        if not all(isinstance(i, str) for i in idxs):
            raise CodegenError("ArrayAccess3 indices must be scalars")
        if isinstance(view, (View3D, ViewMem3D)):
            return view.access3(*idxs)  # type: ignore[arg-type]
        raise CodegenError("ArrayAccess3 on non-3-D view")

    if isinstance(fun, Slide):
        return ViewSlide(_as_view(_gen(expr.args[0], ctx)), fun.size, fun.step)

    if isinstance(fun, Pad):
        inner_t = expr.args[0].type
        if not isinstance(inner_t, ArrayType):
            raise CodegenError("Pad over non-array")
        val = c_literal(fun.value.value, _leaf_scalar(inner_t))
        return ViewPad(_as_view(_gen(expr.args[0], ctx)), fun.left,
                       _size_c(inner_t.size, ctx), val)

    if isinstance(fun, Slide3D):
        return ViewSlide3D(_as_view3(_gen(expr.args[0], ctx)), fun.size, fun.step)

    if isinstance(fun, Pad3D):
        t = expr.args[0].type
        nz, ny, nx = _shape3(t)
        val = c_literal(fun.value.value, _leaf_scalar(t))
        return ViewPad3D(_as_view3(_gen(expr.args[0], ctx)), fun.left,
                         _size_c(nz, ctx), _size_c(ny, ctx), _size_c(nx, ctx), val)

    if isinstance(fun, Split):
        return ViewSplit(_as_view(_gen(expr.args[0], ctx)), _size_c(fun.n, ctx))

    if isinstance(fun, Join):
        t = expr.args[0].type
        if not isinstance(t, ArrayType) or not isinstance(t.elem, ArrayType):
            raise CodegenError("Join over non-nested array")
        return ViewJoin(_as_view(_gen(expr.args[0], ctx)),
                        _size_c(t.elem.size, ctx))

    if isinstance(fun, (Id, ToGPU, ToHost)):
        return _gen(expr.args[0], ctx)

    if isinstance(fun, ArrayCons):
        v = _gen(expr.args[0], ctx)
        if not isinstance(v, str):
            raise CodegenError("ArrayCons over non-scalar")
        view = ViewConstant(v)
        view.length = fun.n  # type: ignore[attr-defined]
        return view

    if isinstance(fun, AbstractReduce):
        return _gen_reduce(expr, ctx)

    if isinstance(fun, TupleCons):
        # effects tuple: realise each component's writes, no value
        for a in expr.args:
            _gen_write(a, None, ctx)
        return None

    if isinstance(fun, WriteTo):
        return _gen_writeto(expr, ctx)

    if isinstance(fun, (MapSeq, Map)):
        t = expr.type
        if isinstance(t, ArrayType) and not isinstance(t.elem, ScalarType):
            # effects-only sequential map (tuple-of-writes per element)
            return _gen_write(expr, None, ctx)
        return _gen_private_map(expr, ctx)

    raise CodegenError(f"pattern {fun.name} not supported in value position")


def _leaf_scalar(t: LiftType) -> ScalarType:
    while isinstance(t, ArrayType):
        t = t.elem
    if not isinstance(t, ScalarType):
        raise CodegenError(f"non-scalar leaf type {t!r}")
    return t


def _as_view(v) -> InView:
    if isinstance(v, InView):
        return v
    raise CodegenError(f"expected an array view, got {v!r}")


def _as_view3(v) -> View3D:
    if isinstance(v, (View3D, ViewMem3D)):
        return v
    raise CodegenError(f"expected a 3-D view, got {v!r}")


def _const_len(t: LiftType) -> int | None:
    if isinstance(t, ArrayType):
        return t.size.as_constant()
    return None


def _gen_reduce(expr: FunCall, ctx: _Ctx) -> str:
    fun = expr.fun
    assert isinstance(fun, AbstractReduce)
    view = _as_view(_gen(expr.args[0], ctx))
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise CodegenError("Reduce over non-array")
    n_c = _size_c(arr_t.size, ctx)
    acc_t = expr.type
    if not isinstance(acc_t, ScalarType):
        raise CodegenError("Reduce with non-scalar accumulator")
    acc = ctx.names.fresh("acc")
    init = _gen(fun.init, ctx)
    ctx.block.declare(c_type(acc_t), acc, str(init))
    n_const = arr_t.size.as_constant()
    if n_const is not None and n_const <= 8:
        # Unrolled reduction — what LIFT emits for small constant windows.
        for j in range(n_const):
            elem = view.access(str(j))
            upd = _apply_fun(fun.f, [acc, elem], ctx,
                             arg_types=[acc_t, arr_t.elem])
            ctx.block.stmt(f"{acc} = {upd};")
    else:
        i = ctx.names.fresh("i")
        loop = ctx.block.for_loop(i, "0", n_c)
        inner = ctx.child(loop)
        elem = view.access(i)
        upd = _apply_fun(fun.f, [acc, elem], inner,
                         arg_types=[acc_t, arr_t.elem])
        loop.stmt(f"{acc} = {upd};")
    return acc


def _gen_private_map(expr: FunCall, ctx: _Ctx) -> InView:
    """A sequential map in value position → private-memory temporary array."""
    fun = expr.fun
    assert isinstance(fun, AbstractMap)
    arr_t = expr.args[0].type
    n = _const_len(arr_t)
    if n is None:
        raise CodegenError("value-position map needs a constant length "
                           "(private memory)")
    out_t = expr.type
    sc = _leaf_scalar(out_t)
    tmp = ctx.names.fresh("priv")
    ctx.block.stmt(f"{c_type(sc)} {tmp}[{n}];")
    view = _as_view(_gen(expr.args[0], ctx))
    i = ctx.names.fresh("i")
    loop = ctx.block.for_loop(i, "0", str(n))
    inner = ctx.child(loop)
    elem = view.access(i)
    val = _apply_fun(fun.f, [elem], inner,
                     arg_types=[arr_t.elem] if isinstance(arr_t, ArrayType) else None)
    if not isinstance(val, str):
        raise CodegenError("private map must produce scalars")
    loop.stmt(f"{tmp}[{i}] = {val};")
    return ViewMem(tmp, sc, str(n))


# --- write generation -----------------------------------------------------------


def _gen_write(expr: Expr, out: OutView | None, ctx: _Ctx):
    """Generate statements realising ``expr`` into the output view ``out``."""
    if isinstance(expr, FunCall):
        fun = expr.fun

        if isinstance(fun, Lambda):
            # `let` chain: bind, then keep writing through the body
            inner = ctx.child(ctx.block)
            for p, a in zip(fun.params, expr.args):
                _bind(inner, p, _gen(a, ctx))
            return _gen_write(fun.body, out, inner)

        if isinstance(fun, (ToGPU, ToHost, Id)):
            return _gen_write(expr.args[0], out, ctx)

        if isinstance(fun, TupleCons):
            for a in expr.args:
                _gen_write(a, None, ctx)
            return None

        if isinstance(fun, WriteTo):
            return _gen_writeto(expr, ctx)

        if isinstance(fun, MapGlb):
            return _gen_mapglb(expr, out, ctx)

        if isinstance(fun, MapGlb3D):
            return _gen_mapglb3d(expr, out, ctx)

        if isinstance(fun, (MapSeq, Map, MapWrg, MapLcl)):
            return _gen_mapseq_write(expr, out, ctx)

        if isinstance(fun, Concat):
            return _gen_concat(expr, out, ctx)

        if isinstance(fun, ArrayCons):
            if out is None:
                raise CodegenError("ArrayCons write without output view")
            v = _gen(expr.args[0], ctx)
            for j in range(fun.n):
                ctx.block.stmt(out.store(str(j), str(v)))
            return None

        if isinstance(fun, Skip):
            return None  # no code — pure offset (paper Table I)

    # scalar fallthrough
    value = _gen(expr, ctx)
    if value is None:
        return None  # pure effects (tuple of in-place writes)
    if isinstance(value, str):
        if out is None:
            return value
        if isinstance(out, OutElement):
            ctx.block.stmt(out.store_scalar(value))
        else:
            ctx.block.stmt(out.store("0", value))
        return None
    if isinstance(value, InView) and out is not None:
        # identity copy of an array value
        t = expr.type
        if not isinstance(t, ArrayType):
            raise CodegenError("array copy of non-array type")
        i = ctx.names.fresh("i")
        loop = ctx.block.for_loop(i, "0", _size_c(t.size, ctx))
        elem = value.access(i)
        if not isinstance(elem, str):
            raise CodegenError("copy of nested arrays is not supported")
        loop.stmt(out.store(i, elem))
        return None
    raise CodegenError(f"cannot write {expr!r}")


def _gen_writeto(expr: FunCall, ctx: _Ctx):
    target = expr.args[0]
    # element target: WriteTo(ArrayAccess(buf, idx), scalar)
    t = target
    while isinstance(t, FunCall) and isinstance(t.fun, (ToGPU, ToHost, Id)):
        t = t.args[0]
    if isinstance(t, FunCall) and isinstance(t.fun, ArrayAccess):
        view = _as_view(_gen(t.args[0], ctx))
        if not isinstance(view, ViewMem):
            raise CodegenError("element WriteTo target must be memory")
        idx = _gen(t.args[1], ctx)
        dest = OutElement(view.name, str(idx), view.scalar)
        val = _gen(expr.args[1], ctx)
        if not isinstance(val, str):
            raise CodegenError("element WriteTo requires a scalar value")
        ctx.block.stmt(dest.store_scalar(val))
        return val
    view = _gen(t, ctx)
    if isinstance(view, (ViewMem, ViewMem3D)):
        dest = in_view_to_out(view)
        return _gen_write(expr.args[1], dest, ctx)
    raise CodegenError(f"unsupported WriteTo target {target!r}")


def _gen_mapglb(expr: FunCall, out: OutView | None, ctx: _Ctx):
    fun = expr.fun
    assert isinstance(fun, MapGlb)
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise CodegenError("MapGlb over non-array")
    view = _as_view(_gen(expr.args[0], ctx))
    n_c = _size_c(arr_t.size, ctx)
    gid = ctx.names.fresh("gid")
    dim = fun.dim
    loop = ctx.block.open(
        f"for (int {gid} = get_global_id({dim}); {gid} < {paren(n_c)}; "
        f"{gid} += get_global_size({dim}))")
    inner = ctx.child(loop)
    elem = view.access(gid)
    body_t = expr.type
    elem_t = body_t.elem if isinstance(body_t, ArrayType) else None
    if isinstance(elem_t, ArrayType):
        # rows form: each iteration writes a (mostly skipped) full-length row
        _apply_fun(fun.f, [elem], inner, out=out, arg_types=[arr_t.elem])
    elif out is None:
        _apply_fun(fun.f, [elem], inner, out=None, arg_types=[arr_t.elem])
    else:
        val = _apply_fun(fun.f, [elem], inner, out=None,
                         arg_types=[arr_t.elem])
        if isinstance(val, str):
            loop.stmt(out.store(gid, val))
        elif val is not None:
            raise CodegenError("MapGlb body produced a non-scalar value")


def _gen_mapseq_write(expr: FunCall, out: OutView | None, ctx: _Ctx):
    fun = expr.fun
    assert isinstance(fun, AbstractMap)
    arr_t = expr.args[0].type
    if not isinstance(arr_t, ArrayType):
        raise CodegenError("map over non-array")
    view = _gen(expr.args[0], ctx)
    n = _const_len(arr_t)
    if out is None:
        # Effects-only sequential map (e.g. per-ODE-branch element writes).
        n_c = _size_c(arr_t.size, ctx)
        i = ctx.names.fresh("b")
        loop = ctx.block.for_loop(i, "0", paren(n_c))
        inner = ctx.child(loop)
        elem = view.access(i) if isinstance(view, InView) else view
        f = fun.f
        if isinstance(f, Lambda):
            _bind(inner, f.params[0], elem)
            _gen_write(f.body, None, inner)
        else:
            _apply_fun(f, [elem], inner, arg_types=[arr_t.elem])
        return None
    if n is not None and n <= 4:
        for j in range(n):
            elem = view.access(str(j)) if isinstance(view, InView) else view
            val = _apply_fun(fun.f, [elem], ctx, arg_types=[arr_t.elem])
            if not isinstance(val, str):
                raise CodegenError("map body must produce scalars here")
            ctx.block.stmt(out.store(str(j), val))
        return None
    n_c = _size_c(arr_t.size, ctx)
    i = ctx.names.fresh("i")
    loop = ctx.block.for_loop(i, "0", paren(n_c))
    inner = ctx.child(loop)
    elem = _as_view(view).access(i)
    val = _apply_fun(fun.f, [elem], inner, arg_types=[arr_t.elem])
    if not isinstance(val, str):
        raise CodegenError("map body must produce scalars here")
    loop.stmt(out.store(i, val))
    return None


def _gen_concat(expr: FunCall, out: OutView | None, ctx: _Ctx):
    if out is None:
        raise CodegenError("Concat requires an output view")
    offset_parts: list[str] = []
    for part in expr.args:
        dest = OutOffset(out, "+".join(offset_parts)) if offset_parts else out
        if isinstance(part, FunCall) and isinstance(part.fun, Skip):
            length = part.fun.length.substitute(ctx.arith).to_c()
            offset_parts.append(paren(length))
            continue  # Skip generates no code
        _gen_write(part, dest, ctx)
        t = part.type
        if not isinstance(t, ArrayType):
            raise CodegenError("Concat part is not an array")
        offset_parts.append(paren(_size_c(t.size, ctx)))
    return None


def _gen_mapglb3d(expr: FunCall, out: OutView | None, ctx: _Ctx):
    fun = expr.fun
    assert isinstance(fun, MapGlb3D)
    t = expr.args[0].type
    nz, ny, nx = _shape3(t)
    view = _as_view3(_gen(expr.args[0], ctx))
    ctx.block.declare("const int", "x", "get_global_id(0)")
    ctx.block.declare("const int", "y", "get_global_id(1)")
    ctx.block.declare("const int", "z", "get_global_id(2)")
    guard = (f"x < {paren(_size_c(nx, ctx))} && y < {paren(_size_c(ny, ctx))} "
             f"&& z < {paren(_size_c(nz, ctx))}")
    blk = ctx.block.if_block(guard)
    inner = ctx.child(blk)
    elem = view.access3("z", "y", "x")
    val = _apply_fun(fun.f, [elem], inner)
    if not isinstance(val, str):
        raise CodegenError("MapGlb3D body must produce a scalar")
    if out is None:
        raise CodegenError("MapGlb3D requires an output view")
    if isinstance(out, OutMem3D):
        blk.stmt(out.store3("z", "y", "x", val))
    else:
        nxc, nyc = paren(_size_c(nx, ctx)), paren(_size_c(ny, ctx))
        blk.stmt(out.store(f"(z*{nyc}+y)*{nxc}+x", val))
    return None
