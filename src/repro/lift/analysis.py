"""Per-work-item resource analysis of LIFT kernels.

The paper's performance discussion is grounded in per-update resource
counts ("This FD-MM algorithm performs 45 memory accesses and 98
floating-point operations per update.  The previous FI-MM version performs
6 memory accesses for only 7 computations per update", §VII-B2).  This
module derives such counts directly from the IR with an abstract
interpreter over a single work item:

* global **loads/stores** are counted where the generated code would issue
  them — at ``Get``/``ArrayAccess``/``ArrayAccess3`` sites and at output
  stores — once per syntactic site (matching the register-caching ``tmp``
  variables the code generator emits), multiplied by constant sequential
  trip counts (ODE branches, stencil windows);
* **flops** count arithmetic ``BinOp``/``UnaryOp``/``UserFun`` applications
  (comparisons and integer index arithmetic are tallied separately);
* both sides of a ``Select`` are charged (GPU predication), and the kernel
  is flagged divergent when a Select guards memory traffic.

The counting convention is deliberately simple and documented; measured
counts are compared against the paper's quoted numbers in EXPERIMENTS.md.
The GPU cost model (:mod:`repro.gpu.costmodel`) consumes these counts, so
modelled runtimes are a function of the *same IR* that generates the code.
"""

from __future__ import annotations

from .ast import (BinOp, Expr, FunCall, Lambda, Literal, Param, Select,
                  UnaryOp, UserFun)
from .patterns import (AbstractMap, AbstractReduce, ArrayAccess,
                       ArrayAccess3, ArrayCons, Concat, Get, Id, Iota,
                       Map, Map3D, MapGlb, MapGlb3D, MapSeq, Pad, Pad3D,
                       Skip, Slide, Slide3D, Split, Join, ToGPU, ToHost,
                       TupleCons, WriteTo, Zip, Zip3D)
from .resources import Resources
from .types import ArrayType, Double, Float, Int, ScalarType
from .type_inference import infer


class AnalysisError(Exception):
    """Raised when a kernel shape cannot be analysed."""


# --- abstract values -------------------------------------------------------------

class _AbsArray:
    """An array backed by global memory (a kernel parameter)."""

    def __init__(self, scalar: ScalarType, rank: int, name: str = "?",
                 is_table: bool = False):
        self.scalar = scalar
        self.rank = rank
        self.name = name
        self.is_table = is_table

    def element(self, rank: int = 0) -> "_AbsArray":
        return _AbsArray(self.scalar, rank, self.name, self.is_table)


class _AbsIota:
    pass


class _AbsRepeat:
    def __init__(self, n: int):
        self.n = n


class _AbsTuple:
    def __init__(self, components: list):
        self.components = components


class _AbsScalar:
    """An abstract scalar with an index-taint ``origin``:

    ``"const"`` (uniform), ``"gid"`` (affine in the work-item id), or
    ``"mem"`` (derived from a loaded value — data-dependent).
    """

    def __init__(self, scalar: ScalarType | None = None,
                 origin: str = "const"):
        self.scalar = scalar
        self.origin = origin


class _AbsWindow:
    """A window into a global array (slide/pad chains keep the backing)."""

    def __init__(self, backing: _AbsArray):
        self.backing = backing


def _combine_origin(*values) -> str:
    origins = [v.origin for v in values if isinstance(v, _AbsScalar)]
    if "mem" in origins:
        return "mem"
    if "gid" in origins:
        return "gid"
    return "const"


def _access_class(arr: _AbsArray, idx) -> str:
    if arr.is_table:
        return "table"
    origin = idx.origin if isinstance(idx, _AbsScalar) else "mem"
    return "contiguous" if origin in ("gid", "const") else "gathered"


class _AbsUnrollList:
    def __init__(self, elems: list):
        self.elems = elems


def _width(sc: ScalarType | None) -> int:
    return sc.nbytes if sc is not None else 4


# --- the counter ----------------------------------------------------------------


class _Counter:
    def __init__(self):
        self.res = Resources()
        self.memo: dict[tuple[int, int], object] = {}
        self._env_token = 0

    def fresh_env(self, parent: dict | None = None) -> dict:
        env = dict(parent or {})
        self._env_token += 1
        env["__token__"] = self._env_token
        return env

    # -- evaluation ---------------------------------------------------------------
    def eval(self, expr: Expr, env: dict):
        if isinstance(expr, Param):
            if expr.name not in env:
                raise AnalysisError(f"unbound parameter {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, Literal):
            return _AbsScalar(expr.declared_type)
        key = (id(expr), env["__token__"])
        if key in self.memo:
            return self.memo[key]
        value = self._eval(expr, env)
        self.memo[key] = value
        return value

    def _eval(self, expr: Expr, env: dict):
        if isinstance(expr, BinOp):
            a = self.eval(expr.lhs, env)
            b = self.eval(expr.rhs, env)
            t = expr.type
            if expr.is_comparison:
                self.res.comparisons += 1
            elif isinstance(t, ScalarType) and t in (Float, Double):
                self.res.flops += 1
            else:
                self.res.int_ops += 1
            return _AbsScalar(t if isinstance(t, ScalarType) else None,
                              _combine_origin(a, b))
        if isinstance(expr, UnaryOp):
            v = self.eval(expr.operand, env)
            t = expr.type
            if expr.op == "sqrt":
                self.res.flops += 4  # multi-cycle; conventional weight
            elif isinstance(t, ScalarType) and t in (Float, Double):
                self.res.flops += 1
            else:
                self.res.int_ops += 1
            return _AbsScalar(t if isinstance(t, ScalarType) else None,
                              _combine_origin(v))
        if isinstance(expr, Select):
            c = self.eval(expr.cond, env)
            before = (self.res.loads, self.res.stores)
            a = self.eval(expr.if_true, env)
            b = self.eval(expr.if_false, env)
            if (self.res.loads, self.res.stores) != before:
                self.res.divergent = True
            t = expr.type
            return _AbsScalar(t if isinstance(t, ScalarType) else None,
                              _combine_origin(c, a, b))
        if isinstance(expr, FunCall):
            return self._eval_call(expr, env)
        raise AnalysisError(f"cannot analyse {expr!r}")

    def _apply(self, fun, args: list, env: dict, arg_types=None):
        if isinstance(fun, Lambda):
            inner = self.fresh_env(env)
            for p, v in zip(fun.params, args):
                inner[p.name] = v
            return self.eval(fun.body, inner)
        if isinstance(fun, UserFun):
            self.res.flops += fun.flops
            return _AbsScalar(fun.out_type
                              if isinstance(fun.out_type, ScalarType) else None,
                              "mem")
        if isinstance(fun, Id):
            return args[0]
        if isinstance(fun, (AbstractReduce, AbstractMap)) and arg_types:
            # eta-expand so the trip count comes from the argument's type
            from .type_inference import infer as _infer
            params = [Param(f"_eta{i}_{self._env_token}", t)
                      for i, t in enumerate(arg_types)]
            call = FunCall(fun, *params)
            _infer(call)
            inner = self.fresh_env(env)
            for p, v in zip(params, args):
                inner[p.name] = v
            return self.eval(call, inner)
        if isinstance(fun, AbstractReduce):
            return self._reduce_over(fun, args[0], env)
        if isinstance(fun, AbstractMap):
            return self._map_over(fun, args[0], env, None)
        raise AnalysisError(f"cannot apply {fun!r} abstractly")

    def _eval_call(self, expr: FunCall, env: dict):
        fun = expr.fun

        if isinstance(fun, (Id, ToGPU, ToHost)):
            return self.eval(expr.args[0], env)

        if isinstance(fun, Lambda):
            return self._apply(fun, [self.eval(a, env) for a in expr.args], env)
        if isinstance(fun, UserFun):
            for a in expr.args:
                self.eval(a, env)
            self.res.flops += fun.flops
            return _AbsScalar(fun.out_type
                              if isinstance(fun.out_type, ScalarType) else None)

        if isinstance(fun, Get):
            tup = self.eval(expr.args[0], env)
            if not isinstance(tup, _AbsTuple):
                raise AnalysisError("Get on non-tuple")
            comp = tup.components[fun.i]
            # Reading a zipped global element = one load at the Get site.
            if isinstance(comp, _AbsArray) and comp.rank == 0:
                self.res.load(_width(comp.scalar), array=comp.name,
                              access_class="table" if comp.is_table
                              else "contiguous")
                return _AbsScalar(comp.scalar, "mem")
            return comp

        if isinstance(fun, (Zip, Zip3D)):
            return _AbsTuple([self.eval(a, env) for a in expr.args])

        if isinstance(fun, Iota):
            return _AbsIota()

        if isinstance(fun, ArrayAccess):
            arr = self.eval(expr.args[0], env)
            idx = self.eval(expr.args[1], env)
            if isinstance(arr, _AbsArray):
                self.res.load(_width(arr.scalar), array=arr.name,
                              access_class=_access_class(arr, idx))
                return _AbsScalar(arr.scalar, "mem")
            if isinstance(arr, (_AbsWindow,)):
                b = arr.backing
                self.res.load(_width(b.scalar), array=b.name,
                              access_class="table" if b.is_table
                              else "contiguous")
                return _AbsScalar(b.scalar, "mem")
            if isinstance(arr, _AbsIota):
                return _AbsScalar(Int, "gid")
            if isinstance(arr, _AbsUnrollList):
                return arr.elems[0]
            if isinstance(arr, _AbsRepeat):
                return _AbsScalar(None)
            raise AnalysisError("ArrayAccess on unsupported abstract value")

        if isinstance(fun, ArrayAccess3):
            arr = self.eval(expr.args[0], env)
            for i in (1, 2, 3):
                self.eval(expr.args[i], env)
            if isinstance(arr, _AbsWindow):
                b = arr.backing
                self.res.load(_width(b.scalar), array=b.name,
                              access_class="contiguous")
                return _AbsScalar(b.scalar, "mem")
            if isinstance(arr, _AbsArray):
                self.res.load(_width(arr.scalar), array=arr.name,
                              access_class="contiguous")
                return _AbsScalar(arr.scalar, "mem")
            raise AnalysisError("ArrayAccess3 on unsupported abstract value")

        if isinstance(fun, (Slide, Slide3D)):
            parent = self.eval(expr.args[0], env)
            return self._window_of(parent)

        if isinstance(fun, (Pad, Pad3D)):
            parent = self.eval(expr.args[0], env)
            return parent  # guard is index arithmetic, not traffic

        if isinstance(fun, (Split, Join)):
            return self.eval(expr.args[0], env)

        if isinstance(fun, TupleCons):
            return _AbsTuple([self.eval(a, env) for a in expr.args])

        if isinstance(fun, ArrayCons):
            self.eval(expr.args[0], env)
            return _AbsRepeat(fun.n)

        if isinstance(fun, Skip):
            return _AbsRepeat(0)

        if isinstance(fun, Concat):
            # Only data parts store; handled by the write walker.
            for a in expr.args:
                self.eval(a, env)
            return _AbsRepeat(0)

        if isinstance(fun, WriteTo):
            # element write: 1 store of the target scalar width
            target = expr.args[0]
            target_t = target.type
            value = self.eval(expr.args[1], env)
            sc = target_t if isinstance(target_t, ScalarType) else None
            if sc is None and isinstance(target_t, ArrayType):
                sc = target_t.base_scalar
            arr_name, cls = "?", "gathered"
            if isinstance(target, FunCall) and isinstance(target.fun,
                                                          ArrayAccess):
                tgt_arr = self.eval(target.args[0], env)
                tgt_idx = self.eval(target.args[1], env)
                if isinstance(tgt_arr, _AbsArray):
                    arr_name = tgt_arr.name
                    cls = _access_class(tgt_arr, tgt_idx)
            self.res.store(_width(sc), array=arr_name, access_class=cls)
            return value

        if isinstance(fun, AbstractReduce):
            return self._reduce_over(fun, self.eval(expr.args[0], env), env,
                                     arr_expr=expr.args[0])

        if isinstance(fun, AbstractMap):
            return self._map_over(fun, self.eval(expr.args[0], env), env,
                                  expr.args[0])

        raise AnalysisError(f"no abstract semantics for {fun!r}")

    def _window_of(self, parent):
        if isinstance(parent, _AbsArray):
            return _AbsWindow(parent)
        if isinstance(parent, _AbsTuple):
            return _AbsTuple([self._window_of(c) for c in parent.components])
        if isinstance(parent, _AbsWindow):
            return parent
        raise AnalysisError("Slide over unsupported abstract value")

    def _trip(self, arr_expr: Expr | None) -> int | None:
        """Constant trip count, or None when the length is symbolic."""
        if arr_expr is None or not isinstance(arr_expr.type, ArrayType):
            raise AnalysisError("sequential trip count must be constant")
        return arr_expr.type.size.as_constant()

    def _pending(self, comp):
        """A zipped component: its load is charged at the Get site."""
        if isinstance(comp, _AbsArray):
            return comp.element(0)
        if isinstance(comp, _AbsWindow):
            return comp
        if isinstance(comp, _AbsIota):
            return _AbsScalar(Int, "gid")
        if isinstance(comp, (_AbsScalar, _AbsRepeat)):
            return comp
        raise AnalysisError(f"unsupported zip component {comp!r}")

    def _element_of_typed(self, value, elem_t):
        """Element extraction that respects the element *type*: an element
        that is itself an array (a slide window) defers its loads."""
        if isinstance(value, _AbsWindow) and isinstance(elem_t, ArrayType):
            return value  # element of an array-of-windows is the window
        if isinstance(value, _AbsArray) and isinstance(elem_t, ArrayType):
            return value.element(max(0, value.rank - 1))
        return self._element_of(value)

    def _element_of(self, value, scalar_hint=None):
        if isinstance(value, _AbsArray):
            return value.element(value.rank - 1) \
                if value.rank > 1 else _AbsScalarFromArray(value, self)
        if isinstance(value, _AbsTuple):
            return _AbsTuple([self._pending(c) for c in value.components])
        if isinstance(value, _AbsIota):
            return _AbsScalar(Int, "gid")
        if isinstance(value, _AbsRepeat):
            return _AbsScalar(None)
        if isinstance(value, _AbsWindow):
            b = value.backing
            self.res.load(_width(b.scalar), array=b.name,
                          access_class="contiguous")
            return _AbsScalar(b.scalar, "mem")
        if isinstance(value, _AbsUnrollList):
            return value.elems[0]
        raise AnalysisError(f"cannot take element of {value!r}")

    def _map_over(self, fun: AbstractMap, value, env: dict,
                  arr_expr: Expr | None):
        n = self._trip(arr_expr) if arr_expr is not None else 1
        elem_t = (arr_expr.type.elem if arr_expr is not None
                  and isinstance(arr_expr.type, ArrayType) else None)
        before = _snapshot(self.res)
        elem = (self._element_of_typed(value, elem_t) if elem_t is not None
                else self._element_of(value))
        result = self._apply(fun.f, [elem], env,
                             arg_types=[elem_t] if elem_t is not None else None)
        if n is None:
            # a symbolic-length map in value position: an *unfused* producer
            # stage.  Per work item of the consumer: one application of the
            # producer body plus the materialisation of one intermediate
            # element (a store here; the consumer's access counts the load).
            sc = result.scalar if isinstance(result, _AbsScalar) else None
            self.res.store(_width(sc), array="__intermediate__",
                           access_class="contiguous")
            return _AbsArray(sc if sc is not None else Float, 1,
                             "__intermediate__")
        _scale_delta(self.res, before, n)
        return _AbsUnrollList([result])

    def _reduce_over(self, fun: AbstractReduce, value, env: dict,
                     arr_expr: Expr | None = None):
        n = self._trip(arr_expr) if arr_expr is not None else 1
        if n is None:
            raise AnalysisError(
                "reduce over a symbolic-length array is not per-work-item "
                "analysable")
        elem_t = (arr_expr.type.elem if arr_expr is not None
                  and isinstance(arr_expr.type, ArrayType) else None)
        init = self.eval(fun.init, self.fresh_env())
        before = _snapshot(self.res)
        elem = (self._element_of_typed(value, elem_t) if elem_t is not None
                else self._element_of(value))
        acc = self._apply(fun.f, [init, elem], env)
        _scale_delta(self.res, before, n)
        return acc if isinstance(acc, _AbsScalar) else _AbsScalar(None)


def _AbsScalarFromArray(arr: _AbsArray, counter: _Counter) -> _AbsScalar:
    counter.res.load(_width(arr.scalar), array=arr.name,
                     access_class="table" if arr.is_table else "contiguous")
    return _AbsScalar(arr.scalar, "mem")


def _snapshot(res: Resources):
    return (dict(res.loads_by_width), dict(res.stores_by_width),
            dict(res.loads_detail), dict(res.stores_detail),
            res.flops, res.int_ops, res.comparisons)


def _scale_delta(res: Resources, before, factor: int) -> None:
    lb, sb, ld, sd, fb, ib, cb = before
    for w in set(res.loads_by_width) | set(lb):
        old = lb.get(w, 0.0)
        res.loads_by_width[w] = old + (res.loads_by_width.get(w, 0.0) - old) * factor
    for w in set(res.stores_by_width) | set(sb):
        old = sb.get(w, 0.0)
        res.stores_by_width[w] = old + (res.stores_by_width.get(w, 0.0) - old) * factor
    for k in set(res.loads_detail) | set(ld):
        old = ld.get(k, 0.0)
        res.loads_detail[k] = old + (res.loads_detail.get(k, 0.0) - old) * factor
    for k in set(res.stores_detail) | set(sd):
        old = sd.get(k, 0.0)
        res.stores_detail[k] = old + (res.stores_detail.get(k, 0.0) - old) * factor
    res.flops = fb + (res.flops - fb) * factor
    res.int_ops = ib + (res.int_ops - ib) * factor
    res.comparisons = cb + (res.comparisons - cb) * factor


# --- entry point -----------------------------------------------------------------


def analyse_kernel(kernel: Lambda,
                   table_size_vars: frozenset[str] = frozenset({"M"})
                   ) -> Resources:
    """Resources per work item of the kernel's outermost parallel map.

    ``table_size_vars``: size variables that mark small cache-resident
    coefficient tables (per-material arrays sized by ``M`` by default).
    """
    infer(kernel)
    counter = _Counter()
    env = counter.fresh_env()
    for p in kernel.params:
        t = p.declared_type
        if isinstance(t, ArrayType):
            size_vars = frozenset()
            tt = t
            while isinstance(tt, ArrayType):
                size_vars |= tt.size.free_vars()
                tt = tt.elem
            is_table = bool(size_vars) and size_vars <= table_size_vars
            env[p.name] = _AbsArray(t.base_scalar, len(t.shape()), p.name,
                                    is_table)
        else:
            env[p.name] = _AbsScalar(t if isinstance(t, ScalarType) else None)

    body = kernel.body
    resources = counter.res

    def walk_spine(expr: Expr, out_scalar: ScalarType | None):
        if isinstance(expr, FunCall):
            fun = expr.fun
            if isinstance(fun, (ToGPU, ToHost, Id)):
                return walk_spine(expr.args[0], out_scalar)
            if isinstance(fun, TupleCons):
                for a in expr.args:
                    walk_spine(a, out_scalar)
                return
            if isinstance(fun, WriteTo):
                t = expr.args[0].type
                sc = t.base_scalar if isinstance(t, ArrayType) else (
                    t if isinstance(t, ScalarType) else None)
                return walk_spine(expr.args[1], sc)
            if isinstance(fun, (Map, MapGlb, MapSeq, Map3D, MapGlb3D)):
                # one work item = one application of fun.f
                value = counter.eval(expr.args[0], env)
                in_t = expr.args[0].type
                if isinstance(fun, (Map3D, MapGlb3D)):
                    elem = _elem3(value, counter)
                    elem_t = None
                else:
                    elem_t = (in_t.elem if isinstance(in_t, ArrayType)
                              else None)
                    elem = (counter._element_of_typed(value, elem_t)
                            if elem_t is not None
                            else counter._element_of(value))
                result = counter._apply(
                    fun.f, [elem], env,
                    arg_types=[elem_t] if elem_t is not None else None)
                body_t = expr.type
                elem_t = body_t.elem if isinstance(body_t, ArrayType) else None
                if isinstance(fun, (Map3D, MapGlb3D)) or isinstance(
                        elem_t, ScalarType):
                    if not _body_is_effects(fun.f):
                        sc = out_scalar
                        if sc is None and isinstance(body_t, ArrayType):
                            sc = body_t.base_scalar
                        counter.res.store(_width(sc), array="out",
                                          access_class="contiguous")
                elif isinstance(elem_t, ArrayType):
                    _count_row_stores(fun.f, counter, out_scalar)
                return
        raise AnalysisError(f"unsupported kernel spine at {expr!r}")

    walk_spine(body, None)
    return resources


def _body_is_effects(f) -> bool:
    """True when a map body realises its own writes (WriteTo / tuple of
    writes), so no implicit output store exists."""
    if not isinstance(f, Lambda):
        return False
    body = f.body
    while isinstance(body, FunCall) and isinstance(body.fun, Lambda):
        body = body.fun.body
    return isinstance(body, FunCall) and isinstance(body.fun,
                                                    (WriteTo, TupleCons))


def _elem3(value, counter: _Counter):
    if isinstance(value, _AbsTuple):
        return _AbsTuple([counter._pending(c) for c in value.components])
    if isinstance(value, _AbsArray):
        counter.res.load(_width(value.scalar), array=value.name,
                         access_class="contiguous")
        return _AbsScalar(value.scalar, "mem")
    if isinstance(value, _AbsWindow):
        return value  # loads counted at ArrayAccess3 sites
    raise AnalysisError("unsupported 3-D map input")


def _count_row_stores(f, counter: _Counter, out_scalar: ScalarType | None):
    """Rows form: each work item stores the data parts of its Concat row."""
    if not isinstance(f, Lambda):
        raise AnalysisError("rows form requires a lambda")
    body = f.body
    while isinstance(body, FunCall) and isinstance(body.fun, (WriteTo, Lambda)):
        body = body.args[1] if isinstance(body.fun, WriteTo) else body.fun.body
    if not (isinstance(body, FunCall) and isinstance(body.fun, Concat)):
        raise AnalysisError("rows form requires a Concat body")
    for part in body.args:
        if isinstance(part, FunCall) and isinstance(part.fun, Skip):
            continue
        t = part.type
        n = t.size.as_constant() if isinstance(t, ArrayType) else 1
        sc = t.base_scalar if isinstance(t, ArrayType) else out_scalar
        counter.res.store(_width(sc), n or 1, array="out",
                          access_class="gathered")


def analyse_source_kernel(kernel: Lambda) -> Resources:
    """Alias kept for API symmetry with compile_kernel/compile_numpy."""
    return analyse_kernel(kernel)
