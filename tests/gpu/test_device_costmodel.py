"""Tests for the virtual device table and the cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.paper_data import TABLE3_PLATFORMS
from repro.acoustics.geometry import BoxRoom, DomeRoom, Room
from repro.acoustics.grid import Grid3D
from repro.acoustics.topology import build_topology
from repro.gpu import costmodel
from repro.gpu.autotune import CANDIDATE_WORKGROUPS, autotune_workgroup
from repro.gpu.costmodel import (HANDWRITTEN_TRAITS, LIFT_TRAITS,
                                 kernel_time, sector_bytes_per_item)
from repro.gpu.device import (AMD_HD7970, DeviceSpec, NVIDIA_GTX780,
                              NVIDIA_TITAN_BLACK, PAPER_DEVICES,
                              device_by_name)
from repro.lift.resources import Resources


class TestDeviceTable:
    def test_matches_paper_table3(self):
        for name, spec in PAPER_DEVICES.items():
            paper = TABLE3_PLATFORMS[name]
            assert spec.mem_bandwidth_gbs == paper["bandwidth_gbs"]
            assert spec.sp_gflops == paper["sp_gflops"]

    def test_four_devices(self):
        assert len(PAPER_DEVICES) == 4

    def test_lookup(self):
        assert device_by_name("GTX780") is NVIDIA_GTX780
        with pytest.raises(ValueError):
            device_by_name("H100")

    def test_dp_rates(self):
        assert NVIDIA_TITAN_BLACK.dp_gflops == pytest.approx(5120 / 3)
        assert NVIDIA_GTX780.dp_gflops == pytest.approx(3977 / 24)
        assert AMD_HD7970.dp_gflops == pytest.approx(4096 / 4)

    def test_flops_rate(self):
        assert NVIDIA_TITAN_BLACK.flops_rate("single") == 5120e9
        assert NVIDIA_TITAN_BLACK.flops_rate("double") \
            == pytest.approx(5120e9 / 3)
        with pytest.raises(ValueError):
            NVIDIA_TITAN_BLACK.flops_rate("half")

    def test_vendor_sector_sizes(self):
        for spec in PAPER_DEVICES.values():
            assert spec.sector_bytes == (32 if spec.vendor == "nvidia"
                                         else 64)


class TestSectorModel:
    def test_contiguous_indices_cost_width(self):
        idx = np.arange(1024)
        assert sector_bytes_per_item(idx, 8, 32) == pytest.approx(8.0)
        assert sector_bytes_per_item(idx, 4, 32) == pytest.approx(4.0)

    def test_fully_scattered_cost_sector(self):
        idx = np.arange(0, 1024 * 8, 8)  # one 8-byte element per 64B
        assert sector_bytes_per_item(idx, 8, 32) == pytest.approx(32.0)

    def test_width_independence_when_scattered(self):
        """The paper's observation: boundary kernels gain little from
        single precision because isolated accesses move whole sectors."""
        idx = np.arange(0, 512 * 16, 16)
        c4 = sector_bytes_per_item(idx, 4, 32)
        c8 = sector_bytes_per_item(idx, 8, 32)
        assert c8 / c4 < 1.3  # nowhere near the 2x of contiguous streams

    def test_empty_indices(self):
        assert sector_bytes_per_item(np.array([], dtype=np.int64), 8, 32) == 8.0

    @given(st.lists(st.integers(0, 10000), min_size=1, max_size=400,
                    unique=True))
    def test_bounds(self, idx):
        c = sector_bytes_per_item(np.asarray(idx), 8, 32)
        assert 8.0 - 1e-9 <= c <= 32.0 + 1e-9

    @given(st.lists(st.integers(0, 10000), min_size=1, max_size=400,
                    unique=True))
    def test_monotone_in_width(self, idx):
        arr = np.asarray(idx)
        assert sector_bytes_per_item(arr, 4, 32) \
            <= sector_bytes_per_item(arr, 8, 32) + 1e-9


def _distinct_lines(idx: np.ndarray, width: int, sector: int) -> float:
    """The sector model's definition, spelled with ``np.unique``."""
    if idx.size == 0:
        return float(width)
    lines = np.unique((idx.astype(np.int64) * width) // sector)
    return float(lines.size * sector) / float(idx.size)


class TestSectorCount:
    """The distinct-line count is a count of runs, of a sorted copy when
    the stream does not ascend; it must be the integer ``np.unique``
    gives, whatever the order of the stream."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 20000), max_size=300),
           st.sampled_from(["ascending", "shuffled", "duplicated"]),
           st.sampled_from([1, 4, 8]), st.sampled_from([32, 64, 128]),
           st.randoms(use_true_random=False))
    def test_equals_the_unique_count(self, values, order, width, sector,
                                     rnd):
        if order == "ascending":
            values = sorted(set(values))
        elif order == "shuffled":
            rnd.shuffle(values)
        else:
            values = values + values[:len(values) // 2]
        idx = np.asarray(values, dtype=np.int64)
        assert sector_bytes_per_item(idx, width, sector) \
            == _distinct_lines(idx, width, sector)

    @pytest.mark.parametrize("sector", [32, 64, 128])
    @pytest.mark.parametrize("width", [1, 4, 8])
    @pytest.mark.parametrize("values", [[], [7], [5, 5, 5], [9, 3, 9, 0]])
    def test_small_streams(self, values, width, sector):
        idx = np.asarray(values, dtype=np.int64)
        assert sector_bytes_per_item(idx, width, sector) \
            == _distinct_lines(idx, width, sector)

    def test_an_index_edited_in_place_is_counted_afresh(self):
        """Nothing is recalled: the same array, edited in place, is
        priced by the lines it touches now."""
        idx = np.array([0, 4, 12, 16])
        assert sector_bytes_per_item(idx, 8, 32) == 32.0
        idx[1:3] = [8, 8]
        assert sector_bytes_per_item(idx, 8, 32) == 24.0

    def test_the_sweep_prices_each_gather_once(self, monkeypatch):
        """The workgroup sweep prices a launch's gathers once per access
        width, not once per candidate, and picks the timing
        ``kernel_time`` gives at the best candidate, bit for bit."""
        from repro.bench.harness import kernel_resources
        from repro.gpu.autotune import AutotuneMemo
        res = kernel_resources("fd_mm", "double")
        idx = build_topology(Room(Grid3D(30, 24, 20), DomeRoom()),
                             4).boundary_indices
        widths, real = [], costmodel.sector_bytes_per_item
        monkeypatch.setattr(costmodel, "sector_bytes_per_item",
                            lambda i, w, s: widths.append(w) or real(i, w, s))
        best = autotune_workgroup(res, idx.size, NVIDIA_TITAN_BLACK,
                                  "double", gather_index=idx,
                                  memo=AutotuneMemo())
        assert widths and len(widths) == len(set(widths))
        want = min((kernel_time(res, idx.size, NVIDIA_TITAN_BLACK, "double",
                                gather_index=idx, workgroup=wg)
                    for wg in CANDIDATE_WORKGROUPS
                    if wg <= NVIDIA_TITAN_BLACK.max_workgroup),
                   key=lambda t: t.time_ms)
        assert best == want

    @pytest.mark.parametrize("width, sector", [(8, 32), (1, 32), (8, 128)])
    @pytest.mark.parametrize("shape", [BoxRoom, DomeRoom])
    def test_boundary_indices_in_either_order(self, shape, width, sector):
        idx = build_topology(Room(Grid3D(30, 24, 20), shape()),
                             4).boundary_indices
        shuffled = np.random.default_rng(3).permutation(idx)
        want = _distinct_lines(idx, width, sector)
        assert sector_bytes_per_item(idx, width, sector) == want
        assert sector_bytes_per_item(shuffled, width, sector) == want


def _gather_resources():
    r = Resources()
    r.load(4, 1, array="idx", access_class="contiguous")
    r.load(8, 2, array="data", access_class="gathered")
    r.store(8, 1, array="out", access_class="gathered")
    r.flops = 10
    return r


def _stream_resources():
    r = Resources()
    r.load(8, 7, array="curr", access_class="contiguous")
    r.load(8, 1, array="prev", access_class="contiguous")
    r.store(8, 1, array="out", access_class="contiguous")
    r.flops = 20
    return r


class TestKernelTime:
    def test_more_items_takes_longer(self):
        r = _stream_resources()
        t1 = kernel_time(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double")
        t2 = kernel_time(r, 10 ** 6, NVIDIA_TITAN_BLACK, "double")
        assert t2.time_ms > t1.time_ms

    def test_higher_bandwidth_is_faster(self):
        r = _stream_resources()
        t_titan = kernel_time(r, 10 ** 6, NVIDIA_TITAN_BLACK, "double")
        t_780 = kernel_time(r, 10 ** 6, NVIDIA_GTX780, "double")
        assert t_titan.time_ms < t_780.time_ms

    def test_contiguity_speeds_up_gathers(self):
        r = _gather_resources()
        contiguous = np.arange(10 ** 5)
        scattered = np.arange(10 ** 5) * 7
        t_c = kernel_time(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double",
                          gather_index=contiguous)
        t_s = kernel_time(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double",
                          gather_index=scattered)
        assert t_c.time_ms < t_s.time_ms

    def test_unknown_gathers_priced_at_sector(self):
        r = _gather_resources()
        t = kernel_time(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double",
                        gather_index=None)
        # 3 gathered accesses x 32B sector + 4B contiguous
        assert t.bytes_per_item == pytest.approx(3 * 32 + 4)

    def test_table_penalty_only_lift_nvidia_double(self):
        r = _gather_resources()
        r.load(8, 2, array="beta", access_class="table")
        idx = np.arange(10 ** 5)
        args = (r, 10 ** 5, NVIDIA_TITAN_BLACK)
        t_hand = kernel_time(*args, "double", HANDWRITTEN_TRAITS, idx)
        t_lift = kernel_time(*args, "double", LIFT_TRAITS, idx)
        assert t_lift.time_ms > t_hand.time_ms
        # no penalty in single precision
        t_hand_s = kernel_time(*args, "single", HANDWRITTEN_TRAITS, idx)
        t_lift_s = kernel_time(*args, "single", LIFT_TRAITS, idx)
        assert t_lift_s.time_ms == pytest.approx(t_hand_s.time_ms)
        # no penalty on AMD
        t_hand_a = kernel_time(r, 10 ** 5, AMD_HD7970, "double",
                               HANDWRITTEN_TRAITS, idx)
        t_lift_a = kernel_time(r, 10 ** 5, AMD_HD7970, "double",
                               LIFT_TRAITS, idx)
        assert t_lift_a.time_ms == pytest.approx(t_hand_a.time_ms)

    def test_stencil_reuse_collapses_loads(self):
        r = _stream_resources()
        t = kernel_time(r, 10 ** 6, NVIDIA_TITAN_BLACK, "double")
        # curr: 7 loads collapse to ~1.7 fetches, not 7
        assert t.bytes_per_item < 7 * 8

    def test_divergence_penalty(self):
        r = _stream_resources()
        r.flops = 10 ** 4  # force compute-bound
        t_plain = kernel_time(r, 10 ** 6, NVIDIA_TITAN_BLACK, "double")
        r.divergent = True
        t_div = kernel_time(r, 10 ** 6, NVIDIA_TITAN_BLACK, "double")
        assert t_div.time_ms > t_plain.time_ms

    def test_launch_overhead_floor(self):
        r = _stream_resources()
        t = kernel_time(r, 1, NVIDIA_TITAN_BLACK, "double")
        assert t.time_ms >= NVIDIA_TITAN_BLACK.launch_overhead_us * 1e-3

    def test_compute_bound_kernel(self):
        r = Resources()
        r.load(8, 1, array="a", access_class="contiguous")
        r.flops = 10 ** 3
        t = kernel_time(r, 10 ** 6, NVIDIA_GTX780, "double")
        assert t.compute_time_ms > t.mem_time_ms


class TestAutotune:
    def test_best_not_worse_than_any_candidate(self):
        r = _gather_resources()
        idx = np.arange(10 ** 5) * 3
        best = autotune_workgroup(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double",
                                  LIFT_TRAITS, idx)
        for wg in CANDIDATE_WORKGROUPS:
            t = kernel_time(r, 10 ** 5, NVIDIA_TITAN_BLACK, "double",
                            LIFT_TRAITS, idx, workgroup=wg)
            assert best.time_ms <= t.time_ms + 1e-12

    def test_deterministic(self):
        r = _stream_resources()
        a = autotune_workgroup(r, 10 ** 6, AMD_HD7970, "single")
        b = autotune_workgroup(r, 10 ** 6, AMD_HD7970, "single")
        assert a.time_ms == b.time_ms and a.workgroup == b.workgroup

    def test_respects_device_max(self):
        small = DeviceSpec(name="tiny", vendor="nvidia",
                           mem_bandwidth_gbs=100, sp_gflops=1000,
                           dp_ratio=0.5, sector_bytes=32, compute_units=4,
                           warp_size=32, max_workgroup=128)
        r = _stream_resources()
        best = autotune_workgroup(r, 10 ** 5, small, "single")
        assert best.workgroup <= 128
