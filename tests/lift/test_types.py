"""Tests for the LIFT type system (repro.lift.types)."""

import pickle

import pytest

from repro.lift.arith import Cst, Var
from repro.lift.types import (ArrayType, Bool, Double, Float, Int, Long,
                              ScalarType, TupleType, TypeError_, array,
                              check_same, element_type, float_type,
                              scalar_by_name)


class TestScalars:
    def test_widths(self):
        assert Float.nbytes == 4
        assert Double.nbytes == 8
        assert Int.nbytes == 4
        assert Long.nbytes == 8
        assert Bool.nbytes == 1

    def test_c_names(self):
        assert Float.c_name() == "float"
        assert Double.c_name() == "double"
        assert Int.c_name() == "int"

    def test_np_dtypes(self):
        assert Float.np_dtype == "float32"
        assert Double.np_dtype == "float64"
        assert Int.np_dtype == "int32"

    def test_scalar_by_name(self):
        assert scalar_by_name("float") is Float
        assert scalar_by_name("double") is Double

    def test_scalar_by_name_unknown(self):
        with pytest.raises(TypeError_):
            scalar_by_name("half")

    def test_float_type(self):
        assert float_type("single") is Float
        assert float_type("double") is Double
        assert float_type("float32") is Float
        assert float_type("f64") is Double

    def test_float_type_unknown(self):
        with pytest.raises(TypeError_):
            float_type("quad")

    def test_equality(self):
        assert Float == ScalarType("float", 4, "float32")
        assert Float != Double

    @pytest.mark.parametrize("t", [Float, Double, Int, Long, Bool],
                             ids=lambda t: t.name)
    def test_pickle_returns_the_module_instance(self, t):
        # the NumPy emitter tests ``expr.type is Float``
        assert pickle.loads(pickle.dumps(t)) is t


class TestArrayType:
    def test_size_in_bytes(self):
        t = ArrayType(Double, 10)
        assert t.size_in_bytes().evaluate() == 80

    def test_symbolic_size(self):
        t = ArrayType(Float, Var("N"))
        assert t.size_in_bytes().evaluate({"N": 3}) == 12

    def test_c_name(self):
        assert ArrayType(Float, Var("N")).c_name() == "float[N]"

    def test_rejects_non_type_element(self):
        with pytest.raises(TypeError_):
            ArrayType("float", 10)  # type: ignore[arg-type]

    def test_nested_builder(self):
        t = array(Float, Var("a"), Var("b"), Var("c"))
        assert isinstance(t, ArrayType)
        assert t.shape() == (Var("a"), Var("b"), Var("c"))
        assert t.base_scalar is Float

    def test_nested_size_bytes(self):
        t = array(Int, 2, 3)
        assert t.size_in_bytes().evaluate() == 24

    def test_substitute(self):
        t = ArrayType(Float, Var("N"))
        t2 = t.substitute({"N": 8})
        assert t2.size == Cst(8)

    def test_equality(self):
        assert ArrayType(Float, Var("N")) == ArrayType(Float, Var("N"))
        assert ArrayType(Float, Var("N")) != ArrayType(Float, Var("M"))
        assert ArrayType(Float, 4) != ArrayType(Double, 4)

    def test_hashable(self):
        s = {ArrayType(Float, 4), ArrayType(Float, 4)}
        assert len(s) == 1


class TestTupleType:
    def test_components(self):
        t = TupleType(Float, Int)
        assert t.elems == (Float, Int)

    def test_needs_components(self):
        with pytest.raises(TypeError_):
            TupleType()

    def test_size(self):
        assert TupleType(Float, Double).size_in_bytes().evaluate() == 12

    def test_equality(self):
        assert TupleType(Float, Int) == TupleType(Float, Int)
        assert TupleType(Float, Int) != TupleType(Int, Float)

    def test_rejects_non_types(self):
        with pytest.raises(TypeError_):
            TupleType(Float, "int")  # type: ignore[arg-type]


class TestHelpers:
    def test_check_same_ok(self):
        check_same(ArrayType(Float, 4), ArrayType(Float, 4))

    def test_check_same_raises(self):
        with pytest.raises(TypeError_, match="mismatch"):
            check_same(Float, Double, context="unit test")

    def test_element_type(self):
        assert element_type(ArrayType(Int, 3)) is Int

    def test_element_type_non_array(self):
        with pytest.raises(TypeError_):
            element_type(Float)
