"""OpenCL memory allocation for LIFT kernels.

Before code generation, LIFT decides where every expression's result lives
(paper §III-A, Fig. 3).  For the kernel subset supported here three
decisions matter and are computed by :func:`allocate`:

1. the **kernel output buffer** — its element scalar, symbolic element
   count, and whether it is *aliased* to an input parameter because the
   kernel body is (or returns a tuple of) ``WriteTo`` expressions.  Aliased
   outputs allocate nothing: this is precisely the behaviour the paper adds
   ("preventing the allocation of an output buffer that would happen
   automatically in the memory allocator");
2. **private temporaries** — results of inner sequential maps over
   constant-length arrays (FD-MM's per-branch scratch ``_g1[MB]``);
3. the **size parameters** — free symbolic variables appearing in any
   buffer length, which must be passed to the kernel as ``int`` arguments.
"""

from __future__ import annotations

from .arith import ArithExpr
from .ast import Expr, FunCall, Lambda, Param, pre_order
from .patterns import ArrayAccess, Id, ToGPU, ToHost, TupleCons, WriteTo
from .types import ArrayType, LiftType, ScalarType
from .type_inference import infer
from .codegen.plan import KernelAllocation, OutputAllocation


class AllocationError(Exception):
    """Raised when the allocator cannot place a kernel's output."""


def _strip_transfers(expr: Expr) -> Expr:
    """Peel ToGPU/ToHost/Id wrappers (identities for allocation purposes)."""
    while isinstance(expr, FunCall) and isinstance(expr.fun, (ToGPU, ToHost, Id)):
        expr = expr.args[0]
    return expr


def _root_param(expr: Expr) -> Param | None:
    """The parameter a WriteTo target ultimately denotes, if resolvable."""
    expr = _strip_transfers(expr)
    if isinstance(expr, Param):
        return expr
    if isinstance(expr, FunCall) and isinstance(expr.fun, ArrayAccess):
        return _root_param(expr.args[0])
    return None


def _scalar_of(t: LiftType) -> ScalarType:
    while isinstance(t, ArrayType):
        t = t.elem
    if not isinstance(t, ScalarType):
        raise AllocationError(f"cannot determine scalar of {t!r}")
    return t


def _count_of(t: LiftType) -> ArithExpr:
    if isinstance(t, ScalarType):
        from .arith import Cst
        return Cst(1)
    if isinstance(t, ArrayType):
        total = t.size
        elem = t.elem
        while isinstance(elem, ArrayType):
            total = total * elem.size
            elem = elem.elem
        return total
    raise AllocationError(f"cannot size an output of type {t!r}")


def allocate(kernel: Lambda) -> KernelAllocation:
    """Run memory allocation for a kernel Lambda.

    The kernel must already type-check; ``infer`` is invoked here so the
    allocator can be used standalone.
    """
    infer(kernel)
    body = _strip_transfers(kernel.body)

    outputs: list[OutputAllocation] = []

    def place(expr: Expr) -> None:
        expr = _strip_transfers(expr)
        if isinstance(expr, FunCall) and isinstance(expr.fun, WriteTo):
            target = _root_param(expr.args[0])
            if target is None:
                raise AllocationError(
                    "WriteTo target does not resolve to a kernel parameter")
            outputs.append(OutputAllocation(
                scalar=_scalar_of(target.declared_type),
                count=None, aliased_name=target.name))
            return
        if isinstance(expr, FunCall) and isinstance(expr.fun, TupleCons):
            for a in expr.args:
                place(a)
            return
        # Effects-only kernels (FD-MM): the body's value is discarded and
        # every nested WriteTo aliases an input parameter in place.
        nested_writes = [n for n in pre_order(expr)
                         if isinstance(n, FunCall)
                         and isinstance(n.fun, WriteTo)]
        if nested_writes:
            seen: set[str] = set()
            for w in nested_writes:
                target = _root_param(w.args[0])
                if target is None:
                    raise AllocationError(
                        "nested WriteTo target does not resolve to a "
                        "kernel parameter")
                if target.name in seen:
                    continue
                seen.add(target.name)
                outputs.append(OutputAllocation(
                    scalar=_scalar_of(target.declared_type),
                    count=None, aliased_name=target.name))
            return
        t = expr.type
        if t is None:
            raise AllocationError("expression is untyped; run infer first")
        outputs.append(OutputAllocation(
            scalar=_scalar_of(t), count=_count_of(t)))

    place(body)

    # Collect free size variables from every parameter / output length.
    names: set[str] = set()
    for p in kernel.params:
        t = p.declared_type
        while isinstance(t, ArrayType):
            names |= t.size.free_vars()
            t = t.elem
    for o in outputs:
        if o.count is not None:
            names |= o.count.free_vars()
    # Size variables that coincide with scalar kernel parameters are already
    # passed; the rest must be added by codegen.
    param_names = {p.name for p in kernel.params}
    size_params = sorted(names - param_names)
    return KernelAllocation(outputs=outputs, size_params=size_params)
