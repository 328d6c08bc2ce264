"""The host's range check of a program's data-dependent indices.

A ``take`` / indexed-store index comes from an array, so the loop
emitter's wrap test bounds it only from below: past the end a compiled
loop would read or write out of bounds, where NumPy's fancy indexing
raises.  :class:`IndexCheck` evaluates, on the host and in slices of
work-items, just the ops the indices are computed from (the gathers of
index arrays and the arithmetic on them), and raises ``IndexError`` for
an index outside ``[-size, size)`` of the array it reads or writes —
before the launch stores anything.

It runs once per bound index arrays: a call with the arrays of the last
one checked (by identity), sizes, scalars and extent is not checked
again, unless the indices are computed from an array the program writes.
"""

from __future__ import annotations

import weakref

import numpy as np

from .arena import (AliasOp, ArenaProgram, CastOp, GidOp, IndexStoreOp,
                    ShiftOp, TakeOp, UfuncOp, WhereOp, _strip)

#: work-items per slice of :class:`IndexCheck`: its temporaries stay
#: bounded (a few hundred KB), whatever the number of boundary points
_CHECK_ITEMS = 1 << 16


class IndexCheck:
    """A program's check, with the bound arrays it last passed (held
    weakly).  Call it with the launch's arrays, host scalars and extent."""

    def __init__(self, prog: ArenaProgram):
        self.name = prog.name
        gathers = [op for op in prog.ops
                   if isinstance(op, (TakeOp, IndexStoreOp))]
        need = {_strip(op.index) for op in gathers}
        cone = set()
        for op in reversed(prog.ops):
            if isinstance(op, (GidOp, ShiftOp, TakeOp, AliasOp, UfuncOp,
                               WhereOp, CastOp)) and op.name in need:
                cone.add(op)
                need |= {_strip(e) for e in _operands(op)}
        #: in program order: each gather / indexed store (checked) and
        #: each op an index is computed from (evaluated)
        self.plan = [(op, op in cone) for op in prog.ops
                     if op in cone or isinstance(op, (TakeOp, IndexStoreOp))]
        self.reads = sorted({op.base for op in cone
                             if isinstance(op, (ShiftOp, TakeOp))})
        self.sized = sorted({_target(op) for op in gathers})
        self.volatile = bool(set(self.reads) & prog.written)
        self.seen = None

    def __call__(self, arrays: dict, env: dict, n: int) -> None:
        if not self.sized:
            return
        key = ([arrays[a].shape[0] for a in self.sized], dict(env), n)
        seen = self.seen
        if (not self.volatile and seen is not None and seen[1:] == key
                and all(ref() is arrays[a]
                        for ref, a in zip(seen[0], self.reads))):
            return
        for lo in range(0, n, _CHECK_ITEMS):
            self._check(arrays, env, lo, min(n, lo + _CHECK_ITEMS))
        # weakly: a kernel cached across simulations keeps none alive
        self.seen = ([weakref.ref(arrays[a]) for a in self.reads], *key)

    def _check(self, arrays: dict, env: dict, lo: int, hi: int) -> None:
        """The check over work-items ``[lo, hi)``."""
        glb = {"np": np}
        values: dict = {}
        limits: dict = {}

        def value(expr: str):
            s = _strip(expr)
            if s in values:
                return values[s]
            return eval(expr, glb, env)  # noqa: S307

        for op, evaluated in self.plan:
            if isinstance(op, (TakeOp, IndexStoreOp)):
                slot, array = _strip(op.index), _target(op)
                idx = np.asarray(value(op.index))
                if slot not in limits:
                    limits[slot] = int(idx.min()), int(idx.max())
                size = int(arrays[array].shape[0])
                if limits[slot][0] < -size or limits[slot][1] >= size:
                    bad = idx[(idx < -size) | (idx >= size)][0]
                    raise IndexError(
                        f"{self.name}: index {bad} is out of bounds for "
                        f"axis 0 with size {size} ({array}[{slot}])")
            if not evaluated:
                continue
            if isinstance(op, GidOp):
                v = np.arange(lo, hi)
            elif isinstance(op, ShiftOp):
                off = int(value(op.offset))
                base = arrays[op.base]
                v = (base[off + lo:off + hi] if off + lo >= 0
                     else base[np.arange(off + lo, off + hi)])
            elif isinstance(op, TakeOp):
                v = arrays[op.base][value(op.index)]
            elif isinstance(op, CastOp):
                v = np.asarray(value(op.value)).astype(
                    eval(op.dtype, glb))  # noqa: S307
            elif isinstance(op, UfuncOp):
                v = eval(op.ufunc, glb)(*map(value, op.args))  # noqa: S307
            else:
                v = (np.where(*map(value, _operands(op)))
                     if isinstance(op, WhereOp) else value(op.src))
            values[op.name] = v


def _target(op) -> str:
    """The array a gather reads or an indexed store writes."""
    return op.base if isinstance(op, TakeOp) else op.target


def _operands(op) -> tuple:
    """The operand expressions an index-computing op reads."""
    if isinstance(op, TakeOp):
        return (op.index,)
    if isinstance(op, AliasOp):
        return (op.src,)
    if isinstance(op, UfuncOp):
        return op.args
    if isinstance(op, WhereOp):
        return (op.cond, op.if_true, op.if_false)
    if isinstance(op, CastOp):
        return (op.value,)
    return ()
