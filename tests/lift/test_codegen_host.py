"""Tests for the host code generator (repro.lift.codegen.host)."""

import pytest

from repro.lift.arith import Var
from repro.lift.ast import BinOp, FunCall, Lambda, Param, lam
from repro.lift.codegen.host import HostCodegenError, compile_host
from repro.lift.codegen.plan import ArgBinding, CopyIn, CopyOut, Launch
from repro.lift.patterns import Map, OclKernel, ToGPU, ToHost, WriteTo
from repro.lift.types import ArrayType, Float, Int

from repro.acoustics.lift_programs import two_kernel_host

N = Var("N")


def simple_host_program():
    """ToHost(OclKernel(map(*2), ToGPU(A)))"""
    A = Param("A", ArrayType(Float, N))
    x = Param("x", Float)
    kernel = Lambda([Param("inp", ArrayType(Float, N))],
                    FunCall(Map(Lambda([x], BinOp("*", x, 2.0))),
                            Param("inp", ArrayType(Float, N))))
    # rebuild with a shared param object
    inp = Param("inp", ArrayType(Float, N))
    kernel = Lambda([inp], FunCall(Map(Lambda([x], BinOp("*", x, 2.0))), inp))
    launch = FunCall(OclKernel(kernel, "double_kernel"), FunCall(ToGPU(), A))
    return Lambda([A], FunCall(ToHost(), launch))


class TestSimpleProgram:
    def test_plan_op_sequence(self):
        h = compile_host(simple_host_program(), "prog")
        kinds = [type(o).__name__ for o in h.plan.ops]
        assert kinds == ["CopyIn", "Launch", "CopyOut"]

    def test_buffer_allocated_for_input_and_output(self):
        h = compile_host(simple_host_program(), "prog")
        assert len(h.plan.buffers) == 2  # d_A and d_out

    def test_source_contains_cl_calls(self):
        src = compile_host(simple_host_program(), "prog").source
        for call in ("clCreateBuffer", "clEnqueueWriteBuffer",
                     "clSetKernelArg", "clEnqueueNDRangeKernel",
                     "clEnqueueReadBuffer"):
            assert call in src

    def test_kernel_compiled(self):
        h = compile_host(simple_host_program(), "prog")
        assert "double_kernel" in h.kernels
        assert "__kernel void double_kernel" in h.kernels["double_kernel"].source

    def test_launch_bindings(self):
        h = compile_host(simple_host_program(), "prog")
        launch = [o for o in h.plan.ops if isinstance(o, Launch)][0]
        kinds = [b.kind for b in launch.args]
        assert "buffer" in kinds and "size" in kinds

    def test_result_buffer_set(self):
        h = compile_host(simple_host_program(), "prog")
        assert h.plan.result_buffer is not None


class TestListing5:
    def test_two_kernels(self):
        h = compile_host(two_kernel_host("fi_mm", "single").program, "ac")
        launches = [o for o in h.plan.ops if isinstance(o, Launch)]
        assert len(launches) == 2
        assert launches[0].kernel.name == "volume_handling_kernel"
        assert launches[1].kernel.name == "boundary_handling_kernel"

    def test_boundary_kernel_writes_in_place(self):
        h = compile_host(two_kernel_host("fi_mm", "single").program, "ac")
        launches = [o for o in h.plan.ops if isinstance(o, Launch)]
        assert launches[0].out_buffer is not None   # volume allocates
        assert launches[1].out_buffer is None       # boundary is in place

    def test_synchronisation_between_kernels(self):
        src = compile_host(two_kernel_host("fi_mm", "single").program,
                           "ac").source
        assert "clFinish" in src

    def test_shared_buffer_reuse(self):
        """neighbors is uploaded once and passed to both kernels."""
        h = compile_host(two_kernel_host("fi_mm", "double").program, "ac")
        copyins = [o for o in h.plan.ops if isinstance(o, CopyIn)]
        assert [o.host_name for o in copyins].count("neighbors") == 1

    def test_fd_mm_variant(self):
        h = compile_host(two_kernel_host("fd_mm", "double", 3).program, "ac")
        launches = [o for o in h.plan.ops if isinstance(o, Launch)]
        assert len(launches) == 2
        names = [b.param_name for b in launches[1].args]
        for expected in ("BI", "DI", "F", "D", "g1", "vel_prev", "vel_next"):
            assert expected in names

    def test_result_is_volume_output(self):
        h = compile_host(two_kernel_host("fi_mm", "single").program, "ac")
        launches = [o for o in h.plan.ops if isinstance(o, Launch)]
        assert h.plan.result_buffer == launches[0].out_buffer


class TestErrors:
    def test_kernel_arg_without_togpu(self):
        A = Param("A", ArrayType(Float, N))
        inp = Param("inp", ArrayType(Float, N))
        x = Param("x", Float)
        kernel = Lambda([inp], FunCall(Map(Lambda([x], x)), inp))
        prog = Lambda([A], FunCall(OclKernel(kernel, "k"), A))  # missing ToGPU
        with pytest.raises(HostCodegenError):
            compile_host(prog, "bad")

    def test_writeto_requires_kernel_value(self):
        A = Param("A", ArrayType(Float, N))
        ga = FunCall(ToGPU(), A)
        prog = Lambda([A], FunCall(WriteTo(), ga, ga))
        with pytest.raises(HostCodegenError):
            compile_host(prog, "bad")
