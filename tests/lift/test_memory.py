"""Tests for the memory allocator (repro.lift.memory)."""

import pytest

from repro.lift.arith import Var
from repro.lift.ast import BinOp, FunCall, Lambda, Param, lam, lit
from repro.lift.memory import AllocationError, allocate
from repro.lift.patterns import (ArrayAccess, ArrayCons, Concat, Id, Iota,
                                 Map, Skip, ToGPU, TupleCons, WriteTo, Zip)
from repro.lift.types import ArrayType, Double, Float, Int

from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_flat,
                                           fi_mm_boundary, volume_kernel)

N, K, M = Var("N"), Var("K"), Var("M")


class TestFreshOutputs:
    def test_simple_map_allocates(self):
        A = Param("A", ArrayType(Float, N))
        prog = Lambda([A], FunCall(Map(lam(Float, lambda x: x)), A))
        alloc = allocate(prog)
        assert alloc.allocates_output
        assert len(alloc.outputs) == 1
        out = alloc.outputs[0]
        assert out.scalar is Float
        assert out.count == N
        assert out.aliased_name is None

    def test_nested_output_count(self):
        from repro.lift.types import array
        G = Param("G", array(Double, Var("a"), Var("b"), Var("c")))
        from repro.lift.patterns import Map3D
        prog = Lambda([G], FunCall(Map3D(lam(Double, lambda x: x)), G))
        alloc = allocate(prog)
        count = alloc.outputs[0].count
        assert count.evaluate({"a": 2, "b": 3, "c": 4}) == 24

    def test_size_params_collected(self):
        A = Param("A", ArrayType(Float, N))
        prog = Lambda([A], FunCall(Map(lam(Float, lambda x: x)), A))
        assert allocate(prog).size_params == ["N"]

    def test_declared_scalar_params_not_duplicated(self):
        A = Param("A", ArrayType(Float, N))
        n_param = Param("N", Int)
        prog = Lambda([A, n_param], FunCall(Map(lam(Float, lambda x: x)), A))
        assert allocate(prog).size_params == []


class TestInPlaceOutputs:
    def test_writeto_aliases(self):
        A = Param("A", ArrayType(Float, N))
        B = Param("B", ArrayType(Float, N))
        prog = Lambda([A, B], FunCall(WriteTo(), A, B))
        alloc = allocate(prog)
        assert not alloc.allocates_output
        assert alloc.outputs[0].aliased_name == "A"
        assert alloc.outputs[0].is_in_place

    def test_writeto_through_transfers(self):
        A = Param("A", ArrayType(Float, N))
        B = Param("B", ArrayType(Float, N))
        prog = Lambda([A, B], FunCall(WriteTo(), FunCall(ToGPU(), A), B))
        alloc = allocate(prog)
        assert alloc.outputs[0].aliased_name == "A"

    def test_fi_mm_kernel_is_in_place(self):
        alloc = allocate(fi_mm_boundary("double").kernel)
        assert not alloc.allocates_output
        assert alloc.outputs[0].aliased_name == "next"

    def test_fd_mm_kernel_aliases_three_arrays(self):
        alloc = allocate(fd_mm_boundary("double", 3).kernel)
        assert not alloc.allocates_output
        names = {o.aliased_name for o in alloc.outputs}
        assert names == {"next", "g1", "vel_next"}

    def test_volume_kernel_allocates(self):
        alloc = allocate(volume_kernel("single").kernel)
        assert alloc.allocates_output
        assert alloc.outputs[0].scalar is Float
        assert alloc.outputs[0].count == N

    def test_fused_kernel_double_scalar(self):
        alloc = allocate(fi_fused_flat("double").kernel)
        assert alloc.outputs[0].scalar is Double

    def test_tuple_of_element_writes(self):
        A = Param("A", ArrayType(Float, N))
        B = Param("B", ArrayType(Float, N))
        w1 = FunCall(WriteTo(), FunCall(ArrayAccess(), A, lit(0, Int)),
                     lit(1.0, Float))
        w2 = FunCall(WriteTo(), FunCall(ArrayAccess(), B, lit(0, Int)),
                     lit(1.0, Float))
        prog = Lambda([A, B], FunCall(TupleCons(2), w1, w2))
        alloc = allocate(prog)
        assert not alloc.allocates_output
        assert {o.aliased_name for o in alloc.outputs} == {"A", "B"}

    def test_writeto_unresolvable_target(self):
        A = Param("A", ArrayType(Float, N))
        # target is a computed map result, not a parameter
        computed = FunCall(Map(lam(Float, lambda x: x)), A)
        prog = Lambda([A], FunCall(WriteTo(), computed, A))
        with pytest.raises(AllocationError):
            allocate(prog)
