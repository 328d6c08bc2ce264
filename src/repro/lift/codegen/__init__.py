"""Code generation backends for the LIFT IR.

* :mod:`.opencl` — OpenCL C kernel source text (the paper's target).
* :mod:`.host` — OpenCL host-side orchestration: C source text plus an
  executable :class:`~repro.lift.codegen.host.HostPlan` for the virtual GPU
  runtime.
* :mod:`.arena` — the backend-neutral :class:`~repro.lift.codegen.arena.
  ArenaProgram` three-address artifact every executable emitter consumes,
  plus the :class:`~repro.lift.codegen.arena.Workspace` slot arena.
* :mod:`.numpy_backend` — the vectorising compiler: lowers a kernel to
  its :class:`ArenaProgram` and compiles the zero-allocation NumPy source
  that program renders to.
* :mod:`.loops` — compiled parallel fused loops over the same
  :class:`ArenaProgram` (numba jit or C-via-system-compiler tiers), and
  :func:`~repro.lift.codegen.loops.realise`, the one place that picks
  between the two emitters (``EMITTERS``) and decides when a request may
  fall back.
"""

from .opencl import KernelSource, compile_kernel
from .host import HostPlan, HostProgram, compile_host
from .numpy_backend import compile_numpy
from .arena import ArenaProgram, Workspace
from .loops import LoopKernel, LoopsUnsupported, available_tiers, compile_loops

__all__ = ["ArenaProgram", "HostPlan", "HostProgram", "KernelSource",
           "LoopKernel", "LoopsUnsupported", "Workspace", "available_tiers",
           "compile_host", "compile_kernel", "compile_loops",
           "compile_numpy"]
