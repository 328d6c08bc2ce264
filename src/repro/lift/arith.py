"""Symbolic arithmetic for LIFT array sizes and index expressions.

LIFT (Steuwer et al., CGO'17) tracks array lengths and memory indices as
symbolic arithmetic expressions so that the view system can collapse a chain
of pattern applications into a single C index expression.  This module is a
compact re-implementation: expressions are immutable trees over integer (or
rational) constants and named variables, with constant folding performed on
construction.

The public surface:

* :class:`ArithExpr` — base class; supports ``+ - * // %`` and comparisons
  against other expressions or Python ints.
* :class:`Var`, :class:`Cst` — leaves.
* :func:`to_arith` — coerce ints to :class:`Cst`.
* ``ArithExpr.substitute(mapping)`` — replace variables.
* ``ArithExpr.evaluate(env)`` — numeric evaluation.
* ``ArithExpr.to_c()`` — emit a C expression string (used by codegen).
* ``ArithExpr.free_vars()`` — set of variable names.

Only the operations needed by the LIFT views and code generator are
implemented; this is not a general CAS.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Mapping, Union

Number = Union[int, float]
ArithLike = Union["ArithExpr", int]


class ArithError(Exception):
    """Raised on invalid symbolic arithmetic (e.g. unbound variable)."""


def to_arith(value: ArithLike) -> "ArithExpr":
    """Coerce a Python int (or pass through an ArithExpr) to an ArithExpr."""
    if isinstance(value, ArithExpr):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ArithError(f"cannot build arithmetic from bool {value!r}")
    if isinstance(value, int):
        return Cst(value)
    raise ArithError(f"cannot build arithmetic from {value!r}")


class ArithExpr:
    """Immutable symbolic integer expression."""

    __slots__ = ()

    # -- construction helpers -------------------------------------------------
    def __add__(self, other: ArithLike) -> "ArithExpr":
        return Sum.make([self, to_arith(other)])

    def __radd__(self, other: ArithLike) -> "ArithExpr":
        return Sum.make([to_arith(other), self])

    def __sub__(self, other: ArithLike) -> "ArithExpr":
        return Sum.make([self, Prod.make([Cst(-1), to_arith(other)])])

    def __rsub__(self, other: ArithLike) -> "ArithExpr":
        return Sum.make([to_arith(other), Prod.make([Cst(-1), self])])

    def __mul__(self, other: ArithLike) -> "ArithExpr":
        return Prod.make([self, to_arith(other)])

    def __rmul__(self, other: ArithLike) -> "ArithExpr":
        return Prod.make([to_arith(other), self])

    def __floordiv__(self, other: ArithLike) -> "ArithExpr":
        return IntDiv.make(self, to_arith(other))

    def __mod__(self, other: ArithLike) -> "ArithExpr":
        return Mod.make(self, to_arith(other))

    def __neg__(self) -> "ArithExpr":
        return Prod.make([Cst(-1), self])

    # -- interface -------------------------------------------------------------
    def free_vars(self) -> frozenset:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, ArithLike]) -> "ArithExpr":
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Number] | None = None) -> Number:
        raise NotImplementedError

    def to_c(self) -> str:
        raise NotImplementedError

    # -- equality / hashing -----------------------------------------------------
    def _key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Cst(other)
        if not isinstance(other, ArithExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return self.to_c()

    def __reduce__(self):
        # pickle cannot restore slots past the immutable __setattr__, so
        # rebuild through the constructor (not ``make``: no re-folding)
        return type(self), tuple(getattr(self, s) for s in self.__slots__)

    # Convenience: constant value if this expression is a literal constant.
    def as_constant(self) -> int | None:
        """Return the integer value if this expression is constant, else None."""
        if not self.free_vars():
            value = self.evaluate({})
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
        return None


class Cst(ArithExpr):
    """Integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ArithError(f"Cst requires an int, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("ArithExpr is immutable")

    def free_vars(self) -> frozenset:
        return frozenset()

    def substitute(self, mapping) -> "ArithExpr":
        return self

    def evaluate(self, env=None) -> int:
        return self.value

    def to_c(self) -> str:
        return str(self.value)

    def _key(self):
        return ("cst", self.value)


class Var(ArithExpr):
    """Named symbolic variable (array length, loop index, global id...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ArithError(f"Var requires a non-empty name, got {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("ArithExpr is immutable")

    def free_vars(self) -> frozenset:
        return frozenset({self.name})

    def substitute(self, mapping) -> "ArithExpr":
        if self.name in mapping:
            return to_arith(mapping[self.name])
        return self

    def evaluate(self, env=None) -> Number:
        env = env or {}
        if self.name not in env:
            raise ArithError(f"unbound arithmetic variable {self.name!r}")
        return env[self.name]

    def to_c(self) -> str:
        return self.name

    def _key(self):
        return ("var", self.name)


class Sum(ArithExpr):
    """n-ary sum with constant folding and flattening."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("ArithExpr is immutable")

    @staticmethod
    def make(terms: Iterable[ArithExpr]) -> ArithExpr:
        # Flatten nested sums, fold constants, and cancel like terms
        # (``idx + 1 + (N - 1 - idx)`` must simplify to ``N`` — the typing
        # of the paper's Skip/Concat in-place idiom relies on it).
        const = 0
        coeffs: dict = {}   # core term key -> [coefficient, core expr]
        for t in terms:
            t = to_arith(t)
            inner = list(t.terms) if isinstance(t, Sum) else [t]
            for u in inner:
                if isinstance(u, Cst):
                    const += u.value
                    continue
                coeff, core = Sum._split_coefficient(u)
                key = core._key()
                if key in coeffs:
                    coeffs[key][0] += coeff
                else:
                    coeffs[key] = [coeff, core]
        flat: list[ArithExpr] = []
        for coeff, core in coeffs.values():
            if coeff == 0:
                continue
            flat.append(core if coeff == 1 else Prod.make([Cst(coeff), core]))
        if any(isinstance(t, Sum) for t in flat):
            # a sum-valued core whose coefficients cancelled to 1 (as in
            # ``1 + 2*(1+c) - (1+c)``) must be flattened like any other
            return Sum.make(flat + [Cst(const)])
        if const != 0 or not flat:
            flat.append(Cst(const))
        if len(flat) == 1:
            return flat[0]
        # Canonical ordering so structurally equal sums compare equal.
        flat.sort(key=lambda e: str(e._key()))
        return Sum(flat)

    @staticmethod
    def _split_coefficient(term: "ArithExpr") -> tuple[int, "ArithExpr"]:
        """Split a term into (integer coefficient, remaining core)."""
        if isinstance(term, Prod):
            const = 1
            rest = []
            for f in term.factors:
                if isinstance(f, Cst):
                    const *= f.value
                else:
                    rest.append(f)
            if not rest:
                return const, Cst(1)
            core = rest[0] if len(rest) == 1 else Prod(tuple(
                sorted(rest, key=lambda e: str(e._key()))))
            return const, core
        return 1, term

    def free_vars(self) -> frozenset:
        return frozenset().union(*(t.free_vars() for t in self.terms))

    def substitute(self, mapping) -> ArithExpr:
        return Sum.make([t.substitute(mapping) for t in self.terms])

    def evaluate(self, env=None) -> Number:
        return sum(t.evaluate(env) for t in self.terms)

    def to_c(self) -> str:
        parts = []
        for t in self.terms:
            s = t.to_c()
            if parts and not s.startswith("-"):
                parts.append("+")
            elif parts:
                parts.append("")  # '-' already present
            parts.append(s)
        return "(" + "".join(parts) + ")"

    def _key(self):
        return ("sum", tuple(t._key() for t in self.terms))


class Prod(ArithExpr):
    """n-ary product with constant folding and flattening."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, *a):
        raise AttributeError("ArithExpr is immutable")

    @staticmethod
    def make(factors: Iterable[ArithExpr]) -> ArithExpr:
        flat: list[ArithExpr] = []
        const = 1
        for f in factors:
            f = to_arith(f)
            if isinstance(f, Prod):
                inner = list(f.factors)
            else:
                inner = [f]
            for u in inner:
                if isinstance(u, Cst):
                    const *= u.value
                else:
                    flat.append(u)
        if const == 0:
            return Cst(0)
        if const != 1 or not flat:
            flat.insert(0, Cst(const))
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda e: str(e._key()))
        return Prod(flat)

    def free_vars(self) -> frozenset:
        return frozenset().union(*(f.free_vars() for f in self.factors))

    def substitute(self, mapping) -> ArithExpr:
        return Prod.make([f.substitute(mapping) for f in self.factors])

    def evaluate(self, env=None) -> Number:
        return reduce(lambda a, b: a * b, (f.evaluate(env) for f in self.factors), 1)

    def to_c(self) -> str:
        return "(" + "*".join(f.to_c() for f in self.factors) + ")"

    def _key(self):
        return ("prod", tuple(f._key() for f in self.factors))


class IntDiv(ArithExpr):
    """Integer (floor) division."""

    __slots__ = ("num", "den")

    def __init__(self, num: ArithExpr, den: ArithExpr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("ArithExpr is immutable")

    @staticmethod
    def make(num: ArithExpr, den: ArithExpr) -> ArithExpr:
        num, den = to_arith(num), to_arith(den)
        if isinstance(den, Cst):
            if den.value == 0:
                raise ArithError("division by zero in symbolic arithmetic")
            if den.value == 1:
                return num
            if isinstance(num, Cst):
                return Cst(num.value // den.value)
        if num == den:
            return Cst(1)
        if isinstance(num, Cst) and num.value == 0:
            return Cst(0)
        return IntDiv(num, den)

    def free_vars(self) -> frozenset:
        return self.num.free_vars() | self.den.free_vars()

    def substitute(self, mapping) -> ArithExpr:
        return IntDiv.make(self.num.substitute(mapping), self.den.substitute(mapping))

    def evaluate(self, env=None) -> int:
        d = self.den.evaluate(env)
        if d == 0:
            raise ArithError("division by zero")
        return self.num.evaluate(env) // d

    def to_c(self) -> str:
        return f"({self.num.to_c()}/{self.den.to_c()})"

    def _key(self):
        return ("idiv", self.num._key(), self.den._key())


class Mod(ArithExpr):
    """Modulo."""

    __slots__ = ("num", "den")

    def __init__(self, num: ArithExpr, den: ArithExpr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("ArithExpr is immutable")

    @staticmethod
    def make(num: ArithExpr, den: ArithExpr) -> ArithExpr:
        num, den = to_arith(num), to_arith(den)
        if isinstance(den, Cst):
            if den.value == 0:
                raise ArithError("modulo by zero in symbolic arithmetic")
            if den.value == 1:
                return Cst(0)
            if isinstance(num, Cst):
                return Cst(num.value % den.value)
        if num == den:
            return Cst(0)
        if isinstance(num, Cst) and num.value == 0:
            return Cst(0)
        return Mod(num, den)

    def free_vars(self) -> frozenset:
        return self.num.free_vars() | self.den.free_vars()

    def substitute(self, mapping) -> ArithExpr:
        return Mod.make(self.num.substitute(mapping), self.den.substitute(mapping))

    def evaluate(self, env=None) -> int:
        d = self.den.evaluate(env)
        if d == 0:
            raise ArithError("modulo by zero")
        return self.num.evaluate(env) % d

    def to_c(self) -> str:
        return f"({self.num.to_c()}%{self.den.to_c()})"

    def _key(self):
        return ("mod", self.num._key(), self.den._key())


_fresh_counter = 0


def fresh_var(prefix: str = "v") -> Var:
    """Create a variable with a process-unique name (for loop indices)."""
    global _fresh_counter
    _fresh_counter += 1
    return Var(f"{prefix}_{_fresh_counter}")
