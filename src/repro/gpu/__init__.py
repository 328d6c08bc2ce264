"""repro.gpu — a virtual OpenCL GPU substrate.

The paper evaluates on four physical GPUs (Table III).  This package
substitutes them with an analytic model so the reproduction runs anywhere:

* :mod:`.device` — the paper's device table (memory bandwidth, SP GFLOPS)
  plus microarchitectural parameters (DP ratio, DRAM sector size, compute
  units) from vendor documentation;
* :mod:`.costmodel` — a roofline kernel-time model driven by the
  per-work-item resource counts of :mod:`repro.lift.analysis` and by
  *exact* DRAM-sector statistics of the actual boundary-index arrays
  (which is what makes box vs dome vs 336³ behave like the paper);
* :mod:`.runtime` — virtual platform/queue/buffer/kernel/event objects
  that execute LIFT host plans bit-correctly through the NumPy backend
  while reporting modelled OpenCL profiling times;
* :mod:`.autotune` — the "hand-tuned by workgroup size" emulation;
* :mod:`.errors` — the typed OpenCL-status error hierarchy;
* :mod:`.faults` — opt-in, seeded fault injection;
* :mod:`.resilient` — retry/degrade/fallback recovery policies;
* :mod:`.multi` — 1-D domain decomposition across a device pool with
  cost-modelled halo exchange (p2p over an on-board bridge, e.g. the
  R9 295X2, or staged through host PCIe otherwise);
* :mod:`.parallel` — the pool's open plan: one compiled step over the
  shards' Z-block ranges of the caller's arrays, on one thread per shard
  with ``parallel=True``.

Device selection everywhere in the package goes through
:func:`resolve_device`, which accepts a :class:`DeviceSpec`, a paper
device name (``"TitanBlack"``), a shard-pool string (``"RadeonR9:2"``)
or a sequence of any of those, and always returns a tuple of specs.
"""

import importlib

#: the submodule each export lives in, imported on first access (PEP 562):
#: a single-device simulation loads neither the pool nor the recovery layer
_LAZY = {name: module for module, names in {
    "device": ("AMD_HD7970", "AMD_R9_295X2", "DeviceSpec", "NVIDIA_GTX780",
               "NVIDIA_TITAN_BLACK", "PAPER_DEVICES", "device_by_name",
               "resolve_device"),
    "costmodel": ("ImplTraits", "KernelTiming", "LIFT_TRAITS",
                  "HANDWRITTEN_TRAITS", "OverlapTiming",
                  "halo_exchange_time_ms", "kernel_time",
                  "overlapped_step_time_ms", "peer_connected",
                  "sector_bytes_per_item", "transfer_time_ms"),
    "errors": ("CL_STATUS_TABLE", "TRANSIENT_ERRORS", "ClDeviceLost",
               "ClDeviceNotAvailable", "ClError", "ClInvalidBufferSize",
               "ClInvalidGlobalWorkSize", "ClInvalidKernelArgs",
               "ClInvalidValue", "ClInvalidWorkGroupSize",
               "ClMemAllocationFailure", "ClOutOfHostMemory",
               "ClOutOfResources", "ClTransferCorrupted"),
    "faults": ("FAULT_KINDS", "FaultPlan", "FaultRecord", "FaultSpec"),
    "runtime": ("VirtualGPU", "ProfilingEvent", "RunResult",
                "clear_kernel_caches", "kernel_cache_stats"),
    "resilient": ("PolicyOutcome", "ResilientGPU", "RetryPolicy",
                  "shard_retry_policy"),
    "multi": ("MultiGPU", "MultiRunResult", "Shard", "ShardLost",
              "decompose"),
    "autotune": ("AutotuneMemo", "autotune_memo", "autotune_workgroup"),
}.items() for name in names}
__all__ = list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
