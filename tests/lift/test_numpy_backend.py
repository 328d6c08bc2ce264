"""Tests for the NumPy backend (repro.lift.codegen.numpy_backend).

Parity: for every supported program shape, the generated-and-exec'd NumPy
function must agree with the reference interpreter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lift.arith import Var
from repro.lift.ast import BinOp, FunCall, Lambda, Param, Select, lam, lit
from repro.lift.codegen.numpy_backend import (NumpyCodegenError,
                                              compile_numpy)
from repro.lift.interp import Interp
from repro.lift.patterns import (ArrayAccess, ArrayCons, Concat, Get, Id,
                                 Iota, Map, Pad, Reduce, Skip, Slide,
                                 Transpose, WriteTo, Zip)
from repro.lift.types import ArrayType, Double, Float, Int, TupleType

N = Var("N")

floats = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                  min_size=1, max_size=16)


class TestSimplePrograms:
    @given(floats)
    @settings(max_examples=25)
    def test_map_parity_with_interp(self, xs):
        A = Param("A", ArrayType(Double, N))
        prog = Lambda([A], FunCall(Map(lam(Double, lambda x:
                                           BinOp("*", x, x))), A))
        a = np.asarray(xs)
        ref = np.asarray(Interp(sizes={"N": len(xs)}).run(prog, a))
        nk = compile_numpy(prog, "sq")
        out = np.zeros_like(a)
        nk.fn(a, N=len(xs), out=out)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @given(floats)
    @settings(max_examples=25)
    def test_zip_parity(self, xs):
        A = Param("A", ArrayType(Double, N))
        B = Param("B", ArrayType(Double, N))
        p = Param("p", TupleType(Double, Double))
        prog = Lambda([A, B], FunCall(
            Map(Lambda([p], BinOp("-", FunCall(Get(0), p),
                                  FunCall(Get(1), p)))),
            FunCall(Zip(2), A, B)))
        a = np.asarray(xs)
        ref = np.asarray(Interp(sizes={"N": len(xs)}).run(prog, a, 3 * a))
        nk = compile_numpy(prog, "sub")
        out = np.zeros_like(a)
        nk.fn(a, 3 * a, N=len(xs), out=out)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_select_becomes_where(self):
        A = Param("A", ArrayType(Double, N))
        x = Param("x", Double)
        body = Select(BinOp(">", x, lit(0.0, Double)), x, lit(0.0, Double))
        prog = Lambda([A], FunCall(Map(Lambda([x], body)), A))
        nk = compile_numpy(prog, "relu")
        assert "_ws.where(" in nk.source
        out = np.zeros(4)
        nk.fn(np.array([-1.0, 2.0, -3.0, 4.0]), N=4, out=out)
        np.testing.assert_array_equal(out, [0, 2, 0, 4])

    def test_min_max_mapping(self):
        A = Param("A", ArrayType(Double, N))
        x = Param("x", Double)
        prog = Lambda([A], FunCall(Map(Lambda([x], BinOp(
            "min", BinOp("max", x, lit(0.0, Double)), lit(1.0, Double)))), A))
        nk = compile_numpy(prog, "clamp")
        assert "np.minimum" in nk.source and "np.maximum" in nk.source
        out = np.zeros(3)
        nk.fn(np.array([-5.0, 0.5, 9.0]), N=3, out=out)
        np.testing.assert_array_equal(out, [0, 0.5, 1])

    @given(floats)
    @settings(max_examples=25)
    def test_stencil_parity(self, xs):
        A = Param("A", ArrayType(Double, N))
        add = lam([Double, Double], lambda a, b: BinOp("+", a, b))
        prog = Lambda([A], FunCall(Map(Reduce(add, 0.0)),
                                   FunCall(Slide(3, 1),
                                           FunCall(Pad(1, 1, 0.0), A))))
        a = np.asarray(xs)
        ref = np.asarray(Interp(sizes={"N": len(xs)}).run(prog, a))
        nk = compile_numpy(prog, "st")
        out = np.zeros_like(a)
        nk.fn(a, N=len(xs), out=out)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_pad_materialised_with_np_pad(self):
        A = Param("A", ArrayType(Double, N))
        add = lam([Double, Double], lambda a, b: BinOp("+", a, b))
        prog = Lambda([A], FunCall(Map(Reduce(add, 0.0)),
                                   FunCall(Slide(3, 1),
                                           FunCall(Pad(1, 1, 0.0), A))))
        nk = compile_numpy(prog, "st")
        # np.pad runs once, inside the workspace; later calls refresh it
        assert "pad_0 = _ws.pad('pad_0', A, 1, 1, 0.0)" in nk.source
        assert "np.pad" not in nk.source


class TestInPlace:
    def _prog(self):
        M, K = Var("M"), Var("K")
        inp = Param("input", ArrayType(Double, M))
        idxs = Param("indices", ArrayType(Int, K))
        i = Param("i", Int)
        newv = BinOp("*", FunCall(ArrayAccess(), inp, i), 2.0)
        row = FunCall(Concat(3), FunCall(Skip(Double, i.arith)),
                      FunCall(Map(Id()), FunCall(ArrayCons(1), newv)),
                      FunCall(Skip(Double, M - 1 - i.arith)))
        return Lambda([inp, idxs],
                      FunCall(WriteTo(), inp,
                              FunCall(Map(Lambda([i], row)), idxs)))

    def test_scatter_in_place(self):
        nk = compile_numpy(self._prog(), "inplace")
        buf = np.array([1.0, 2.0, 3.0, 4.0])
        ret = nk.fn(buf, np.array([1, 3]), M=4, K=2)
        np.testing.assert_array_equal(buf, [1, 4, 3, 8])
        assert ret is buf

    def test_no_out_in_signature(self):
        nk = compile_numpy(self._prog(), "inplace")
        assert not nk.returns_out
        assert "def inplace(input, indices, K, M, _ws=None):" in nk.source

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=25)
    def test_scatter_parity_with_interp(self, m, data):
        idx = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=m, unique=True))
        prog = self._prog()
        buf1 = np.arange(1.0, m + 1.0)
        buf2 = buf1.copy()
        Interp(sizes={"M": m, "K": len(idx)}).run(
            prog, buf1, np.asarray(idx))
        nk = compile_numpy(prog, "inplace")
        nk.fn(buf2, np.asarray(idx), M=m, K=len(idx))
        np.testing.assert_array_equal(buf1, buf2)


class TestGeneratedSource:
    def test_source_is_printable_python(self):
        A = Param("A", ArrayType(Double, N))
        prog = Lambda([A], FunCall(Map(lam(Double, lambda x: x)), A))
        nk = compile_numpy(prog, "identity_k")
        compile(nk.source, "<test>", "exec")  # must be valid Python

    def test_gid_gather_pipeline(self):
        A = Param("A", ArrayType(Double, N))
        prog = Lambda([A], FunCall(Map(lam(Double, lambda x:
                                           BinOp("+", x, 1.0))), A))
        nk = compile_numpy(prog, "k")
        # the work range is contiguous: gathers are views of it and the
        # scatter is a slice store, so no index array is built per call
        assert "_ws.const('_gid@N', _key, lambda: np.arange(N))" in nk.source
        assert ", A, N, 0, copy=False)" in nk.source      # a _ws.shift
        assert "out[0:N] = t_0" in nk.source

    def test_unsupported_raises(self):
        from repro.lift.types import array
        G = Param("G", array(Double, 3, 4))
        prog = Lambda([G], FunCall(Transpose(), G))
        with pytest.raises(NumpyCodegenError):
            compile_numpy(prog, "bad")
