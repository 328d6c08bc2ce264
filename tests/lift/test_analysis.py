"""Tests for the per-work-item resource analysis (repro.lift.analysis)."""

import pytest

from repro.lift.analysis import analyse_kernel
from repro.lift.arith import Var
from repro.lift.ast import BinOp, FunCall, Lambda, Param, Select, lam, lit
from repro.lift.patterns import (ArrayAccess, Get, Iota, Map, Pad, Reduce,
                                 Slide, WriteTo, Zip)
from repro.lift.resources import Resources
from repro.lift.types import ArrayType, Double, Float, Int, TupleType

from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_3d,
                                           fi_fused_flat, fi_mm_boundary,
                                           volume_kernel)
from repro.bench.paper_data import PAPER_RESOURCE_COUNTS

N = Var("N")


class TestBasicCounting:
    def test_simple_map(self):
        A = Param("A", ArrayType(Float, N))
        prog = Lambda([A], FunCall(Map(lam(Float, lambda x:
                                           BinOp("*", x, x))), A))
        r = analyse_kernel(prog)
        assert r.loads == 1
        assert r.stores == 1
        assert r.flops == 1

    def test_zip_loads_counted_at_get(self):
        A = Param("A", ArrayType(Float, N))
        B = Param("B", ArrayType(Float, N))
        p = Param("p", TupleType(Float, Float))
        # only component 0 is used: exactly one load
        prog = Lambda([A, B], FunCall(Map(Lambda([p], FunCall(Get(0), p))),
                                      FunCall(Zip(2), A, B)))
        r = analyse_kernel(prog)
        assert r.loads == 1

    def test_shared_subexpression_counted_once(self):
        A = Param("A", ArrayType(Float, N))
        x = Param("x", Float)
        shared = BinOp("*", x, x)
        prog = Lambda([A], FunCall(Map(Lambda([x], BinOp("+", shared,
                                                         shared))), A))
        r = analyse_kernel(prog)
        assert r.flops == 2  # one mul + one add, not two muls

    def test_select_marks_divergent_on_memory(self):
        A = Param("A", ArrayType(Float, N))
        i = Param("i", Int)
        body = Select(BinOp(">", i, lit(0, Int)),
                      FunCall(ArrayAccess(), A, i), lit(0.0, Float))
        prog = Lambda([A], FunCall(Map(Lambda([i], body)),
                                   FunCall(Iota(N))))
        r = analyse_kernel(prog)
        assert r.divergent

    def test_pure_arith_select_not_divergent(self):
        A = Param("A", ArrayType(Float, N))
        x = Param("x", Float)
        body = Select(BinOp(">", x, lit(0.0, Float)), x, BinOp("*", x, -1.0))
        prog = Lambda([A], FunCall(Map(Lambda([x], body)), A))
        assert not analyse_kernel(prog).divergent

    def test_stencil_window_multiplies(self):
        A = Param("A", ArrayType(Float, N))
        add = lam([Float, Float], lambda a, b: BinOp("+", a, b))
        prog = Lambda([A], FunCall(Map(Reduce(add, 0.0)),
                                   FunCall(Slide(5, 1), A)))
        r = analyse_kernel(prog)
        assert r.loads == 5
        assert r.flops == 5


class TestClassification:
    def test_gid_index_is_contiguous(self):
        A = Param("A", ArrayType(Float, N))
        i = Param("i", Int)
        prog = Lambda([A], FunCall(Map(Lambda([i], FunCall(ArrayAccess(),
                                                           A, i))),
                                   FunCall(Iota(N))))
        r = analyse_kernel(prog)
        assert ("A", "contiguous", 4) in r.loads_detail

    def test_loaded_index_is_gathered(self):
        A = Param("A", ArrayType(Float, N))
        idxs = Param("idxs", ArrayType(Int, Var("K")))
        i = Param("i", Int)
        inner = FunCall(ArrayAccess(), A, FunCall(ArrayAccess(), idxs, i))
        prog = Lambda([A, idxs], FunCall(Map(Lambda([i], inner)),
                                         FunCall(Iota(Var("K")))))
        r = analyse_kernel(prog)
        assert ("A", "gathered", 4) in r.loads_detail

    def test_material_table_classified(self):
        r = analyse_kernel(fi_mm_boundary("double").kernel)
        assert ("beta", "table", 8) in r.loads_detail

    def test_affine_gid_stays_contiguous(self):
        """b*K + i with constant b and gid i is a coalesced stream."""
        r = analyse_kernel(fd_mm_boundary("double", 3).kernel)
        assert ("g1", "contiguous", 8) in r.loads_detail
        assert r.loads_detail[("g1", "contiguous", 8)] == 3.0

    def test_store_classification(self):
        r = analyse_kernel(fd_mm_boundary("double", 3).kernel)
        assert ("next", "gathered", 8) in r.stores_detail
        assert ("vel_next", "contiguous", 8) in r.stores_detail


class TestPaperCounts:
    """§VII-B2: FD-MM performs 45 memory accesses and 98 ops per update;
    FI-MM performs 6 accesses for 7 computations.  Our counting convention
    (see module docstring) reproduces these within the expected slack; the
    exact measured values are pinned here and reported in EXPERIMENTS.md.
    """

    def test_fi_mm_counts(self):
        r = analyse_kernel(fi_mm_boundary("double").kernel)
        paper = PAPER_RESOURCE_COUNTS["fi_mm"]
        assert r.memory_accesses == 7          # paper: 6
        assert r.flops == paper["flops"]       # paper: 7 — exact match
        assert abs(r.memory_accesses - paper["memory_accesses"]) <= 1

    def test_fd_mm_counts(self):
        r = analyse_kernel(fd_mm_boundary("double", 3).kernel)
        paper = PAPER_RESOURCE_COUNTS["fd_mm"]
        assert r.memory_accesses == 37         # paper: 45 (within 20 %)
        assert 0.7 <= r.memory_accesses / paper["memory_accesses"] <= 1.1
        total_ops = r.flops + r.int_ops
        assert 0.8 <= total_ops / paper["flops"] <= 1.4

    def test_fd_mm_much_heavier_than_fi_mm(self):
        fi = analyse_kernel(fi_mm_boundary("double").kernel)
        fd = analyse_kernel(fd_mm_boundary("double", 3).kernel)
        assert fd.memory_accesses > 4 * fi.memory_accesses
        assert fd.flops > 5 * fi.flops

    def test_branch_count_scales_fd_mm(self):
        fd3 = analyse_kernel(fd_mm_boundary("double", 3).kernel)
        fd6 = analyse_kernel(fd_mm_boundary("double", 6).kernel)
        assert fd6.memory_accesses > fd3.memory_accesses
        assert fd6.flops > fd3.flops

    def test_volume_kernel_resources(self):
        r = analyse_kernel(volume_kernel("double").kernel)
        assert r.loads_detail[("curr", "contiguous", 8)] == 7.0
        assert r.stores == 1
        assert r.divergent  # the nbr > 0 guard

    def test_precision_changes_widths_not_counts(self):
        rs = analyse_kernel(fi_mm_boundary("single").kernel)
        rd = analyse_kernel(fi_mm_boundary("double").kernel)
        assert rs.memory_accesses == rd.memory_accesses
        assert rs.bytes_moved < rd.bytes_moved

    def test_flat_and_3d_fused_agree(self):
        rf = analyse_kernel(fi_fused_flat("double").kernel)
        r3 = analyse_kernel(fi_fused_3d("double").kernel)
        assert rf.loads == r3.loads
        assert rf.stores == r3.stores


class TestResourcesDataclass:
    def test_scaled(self):
        r = Resources()
        r.load(8, 2, array="a", access_class="contiguous")
        r.flops = 3
        s = r.scaled(2.0)
        assert s.loads == 4 and s.flops == 6
        assert s.loads_detail[("a", "contiguous", 8)] == 4.0

    def test_merge(self):
        a, b = Resources(), Resources()
        a.load(4, 1, array="x")
        b.load(4, 2, array="x")
        b.store(8, 1, array="y")
        a.merge(b)
        assert a.loads == 3 and a.stores == 1

    def test_bytes_moved(self):
        r = Resources()
        r.load(8, 2)
        r.store(4, 1)
        assert r.bytes_moved == 20
