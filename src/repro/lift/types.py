"""LIFT type system: scalars, arrays with symbolic lengths, tuples.

Types carry enough information for the memory allocator to compute buffer
sizes (symbolically) and for the code generator to emit OpenCL C type names.
Array lengths are :class:`repro.lift.arith.ArithExpr` so sizes may depend on
named parameters (``N``, ``numBoundaryPoints`` ...).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .arith import ArithExpr, ArithLike, Cst, to_arith


class TypeError_(Exception):
    """LIFT type error (named with a trailing underscore to avoid shadowing)."""


class LiftType:
    """Base class of all LIFT types."""

    def c_name(self) -> str:
        raise NotImplementedError

    def size_in_bytes(self) -> ArithExpr:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, ArithLike]) -> "LiftType":
        return self

    def __repr__(self) -> str:
        return self.c_name()

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if not isinstance(other, LiftType):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class ScalarType(LiftType):
    """A scalar type with a C name, byte width, and NumPy dtype string."""

    def __init__(self, name: str, nbytes: int, np_dtype: str):
        self.name = name
        self.nbytes = nbytes
        self.np_dtype = np_dtype

    def c_name(self) -> str:
        return self.name

    def size_in_bytes(self) -> ArithExpr:
        return Cst(self.nbytes)

    def _key(self):
        return ("scalar", self.name)

    def __reduce__(self):
        # unpickle to the module's instance: emitters test ``is Float``
        return scalar_by_name, (self.name,)


Float = ScalarType("float", 4, "float32")
Double = ScalarType("double", 8, "float64")
Int = ScalarType("int", 4, "int32")
Long = ScalarType("long", 8, "int64")
Bool = ScalarType("bool", 1, "bool")

_SCALARS = {t.name: t for t in (Float, Double, Int, Long, Bool)}


def scalar_by_name(name: str) -> ScalarType:
    """Look up a scalar type by its C name ('float', 'double', 'int', ...)."""
    try:
        return _SCALARS[name]
    except KeyError:
        raise TypeError_(f"unknown scalar type {name!r}") from None


def float_type(precision: str) -> ScalarType:
    """Map a precision string ('single'/'double' or 'float32'/'float64')."""
    if precision in ("single", "float32", "float", "f32"):
        return Float
    if precision in ("double", "float64", "f64"):
        return Double
    raise TypeError_(f"unknown precision {precision!r}")


class ArrayType(LiftType):
    """Array of ``elem`` with symbolic length ``size``."""

    def __init__(self, elem: LiftType, size: ArithLike):
        if not isinstance(elem, LiftType):
            raise TypeError_(f"ArrayType element must be a LiftType, got {elem!r}")
        self.elem = elem
        self.size = to_arith(size)

    def c_name(self) -> str:
        return f"{self.elem.c_name()}[{self.size.to_c()}]"

    def size_in_bytes(self) -> ArithExpr:
        return self.elem.size_in_bytes() * self.size

    def substitute(self, mapping) -> "ArrayType":
        return ArrayType(self.elem.substitute(mapping), self.size.substitute(mapping))

    def _key(self):
        return ("array", self.elem._key(), self.size._key())

    # -- helpers ---------------------------------------------------------------
    @property
    def base_scalar(self) -> ScalarType:
        """The scalar at the bottom of a (possibly nested) array type."""
        t: LiftType = self
        while isinstance(t, ArrayType):
            t = t.elem
        if not isinstance(t, ScalarType):
            raise TypeError_(f"array of non-scalar base: {self!r}")
        return t

    def shape(self) -> tuple[ArithExpr, ...]:
        """Symbolic shape of a nested array type, outermost first."""
        dims: list[ArithExpr] = []
        t: LiftType = self
        while isinstance(t, ArrayType):
            dims.append(t.size)
            t = t.elem
        return tuple(dims)


class TupleType(LiftType):
    """Tuple of heterogeneous component types."""

    def __init__(self, *elems: LiftType):
        if not elems:
            raise TypeError_("TupleType needs at least one component")
        for e in elems:
            if not isinstance(e, LiftType):
                raise TypeError_(f"TupleType component must be a LiftType: {e!r}")
        self.elems = tuple(elems)

    def c_name(self) -> str:
        return "Tuple_" + "_".join(e.c_name().replace("[", "_").replace("]", "") for e in self.elems)

    def size_in_bytes(self) -> ArithExpr:
        total: ArithExpr = Cst(0)
        for e in self.elems:
            total = total + e.size_in_bytes()
        return total

    def substitute(self, mapping) -> "TupleType":
        return TupleType(*(e.substitute(mapping) for e in self.elems))

    def _key(self):
        return ("tuple", tuple(e._key() for e in self.elems))


def array(elem: LiftType, *sizes: ArithLike) -> LiftType:
    """Build a nested array type: ``array(Float, n, m)`` = Array(Array(Float, m), n)."""
    t: LiftType = elem
    for s in reversed(sizes):
        t = ArrayType(t, s)
    return t


def check_same(a: LiftType, b: LiftType, context: str = "") -> None:
    """Raise TypeError_ unless two types are structurally identical."""
    if a != b:
        where = f" in {context}" if context else ""
        raise TypeError_(f"type mismatch{where}: {a!r} vs {b!r}")


def element_type(t: LiftType, context: str = "") -> LiftType:
    """The element type of an array, with a friendly error otherwise."""
    if not isinstance(t, ArrayType):
        where = f" in {context}" if context else ""
        raise TypeError_(f"expected an array type{where}, got {t!r}")
    return t.elem
