"""Typed OpenCL error model: hierarchy, validation, capacity enforcement."""

import dataclasses

import numpy as np
import pytest

from repro.acoustics.lift_programs import LEAPFROG
from repro.gpu import (CL_STATUS_TABLE, ClError, ClInvalidBufferSize,
                       ClInvalidKernelArgs, ClInvalidValue,
                       ClMemAllocationFailure, NVIDIA_TITAN_BLACK,
                       VirtualGPU)

from ..listing5 import listing5_problem


@pytest.fixture(scope="module")
def problem():
    return listing5_problem()


class TestHierarchy:
    def test_status_codes_match_opencl(self):
        assert CL_STATUS_TABLE["CL_OUT_OF_RESOURCES"].status_code == -5
        assert CL_STATUS_TABLE["CL_MEM_OBJECT_ALLOCATION_FAILURE"] \
            .status_code == -4
        assert CL_STATUS_TABLE["CL_INVALID_KERNEL_ARGS"].status_code == -52
        assert CL_STATUS_TABLE["CL_INVALID_BUFFER_SIZE"].status_code == -61

    def test_every_class_subclasses_clerror(self):
        for cls in CL_STATUS_TABLE.values():
            assert issubclass(cls, ClError)

    def test_message_carries_status_name(self):
        err = ClMemAllocationFailure("out of memory", buffer="d_x")
        assert "CL_MEM_OBJECT_ALLOCATION_FAILURE" in str(err)
        assert err.context["buffer"] == "d_x"
        assert not err.injected


class TestValidation:
    def test_missing_size_names_var_and_consumer(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        sizes = {k: v for k, v in problem["sizes"].items() if k != "K"}
        with pytest.raises(ClInvalidValue) as ei:
            gpu.execute(problem["host"], problem["inputs"], sizes)
        msg = str(ei.value)
        assert "'K'" in msg
        # the consumer (a buffer or the boundary launch) is named
        assert "buffer" in msg or "launch" in msg

    def test_missing_size_in_execute_many(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        sizes = {k: v for k, v in problem["sizes"].items() if k != "M"}
        with pytest.raises(ClInvalidValue, match="'M'"):
            gpu.execute_many(problem["host"], problem["inputs"], sizes,
                             steps=2,
                             rotations=[LEAPFROG])

    def test_missing_input_names_host_param(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = {k: v for k, v in problem["inputs"].items()
                  if k != "betaTable"}
        with pytest.raises(ClInvalidKernelArgs, match="betaTable"):
            gpu.execute(problem["host"], inputs, problem["sizes"])

    def test_missing_scalar_input_detected(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = {k: v for k, v in problem["inputs"].items()
                  if k != "lambda_h"}
        with pytest.raises(ClInvalidKernelArgs, match="lambda_h"):
            gpu.execute(problem["host"], inputs, problem["sizes"])


class TestTransferValidation:
    def test_oversized_host_array_is_typed_error(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = dict(problem["inputs"])
        inputs["prev1_h"] = np.zeros(problem["N"] + problem["guard"] + 7)
        with pytest.raises(ClInvalidBufferSize) as ei:
            gpu.execute(problem["host"], inputs, problem["sizes"])
        msg = str(ei.value)
        assert "prev1_h" in msg              # the host param
        assert "NP" in msg                   # the symbolic count
        assert ei.value.context["host_param"] == "prev1_h"

    def test_shortfall_beyond_guard_plane_is_error(self, problem):
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = dict(problem["inputs"])
        inputs["prev1_h"] = np.zeros(problem["N"] - 1)  # guard + 1 short
        with pytest.raises(ClInvalidBufferSize, match="prev1_h"):
            gpu.execute(problem["host"], inputs, problem["sizes"])

    def test_shortfall_within_guard_plane_is_padded(self, problem):
        """An unpadded N-element state array is the documented tolerance:
        the guard plane is zero-filled, not silently truncated."""
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        inputs = dict(problem["inputs"])
        inputs["prev1_h"] = np.asarray(problem["inputs"]["prev1_h"])[
            :problem["N"]].copy()
        res = gpu.execute(problem["host"], inputs, problem["sizes"])
        full = gpu.execute(problem["host"], problem["inputs"],
                           problem["sizes"])
        np.testing.assert_array_equal(np.asarray(res.result),
                                      np.asarray(full.result))


class TestCapacityEnforcement:
    def test_global_memory_exhaustion(self):
        # the fd_mm plan spreads state over many buffers, so a capacity
        # just below the true total trips the global check (not the
        # single-allocation cap)
        fd = listing5_problem("fd_mm")
        host, inputs = fd["host"], fd["inputs"]
        unlimited = VirtualGPU(dataclasses.replace(NVIDIA_TITAN_BLACK,
                                                   global_mem_bytes=0))
        full = unlimited.execute(host, inputs, fd["sizes"])
        total = sum(b.nbytes for b in full.buffers.values())
        tiny = dataclasses.replace(NVIDIA_TITAN_BLACK,
                                   global_mem_bytes=total - 1)
        gpu = VirtualGPU(tiny)
        with pytest.raises(ClMemAllocationFailure) as ei:
            gpu.execute(host, inputs, fd["sizes"])
        ctx = ei.value.context
        assert ctx["capacity_bytes"] == total - 1
        assert ctx["requested_bytes"] + ctx["in_use_bytes"] > total - 1
        assert not ei.value.injected         # real accounting, not a fault

    def test_single_allocation_cap(self, problem):
        # max_alloc = global/4: one state buffer alone exceeds it
        state_bytes = (problem["N"] + problem["guard"]) * 8
        spec = dataclasses.replace(NVIDIA_TITAN_BLACK,
                                   global_mem_bytes=state_bytes * 2)
        gpu = VirtualGPU(spec)
        with pytest.raises(ClInvalidBufferSize, match="MAX_MEM_ALLOC"):
            gpu.execute(problem["host"], problem["inputs"], problem["sizes"])

    def test_zero_capacity_disables_enforcement(self, problem):
        spec = dataclasses.replace(NVIDIA_TITAN_BLACK, global_mem_bytes=0)
        gpu = VirtualGPU(spec)
        res = gpu.execute(problem["host"], problem["inputs"],
                          problem["sizes"])
        assert res.result is not None

    def test_paper_devices_fit_paper_rooms(self, problem):
        """Default paper-device capacities never interfere with the
        reproduction workloads (opt-in guarantee)."""
        gpu = VirtualGPU(NVIDIA_TITAN_BLACK)
        res = gpu.execute(problem["host"], problem["inputs"],
                          problem["sizes"])
        assert res.result is not None
