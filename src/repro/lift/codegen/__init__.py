"""Code generation backends for the LIFT IR.

* :mod:`.opencl` — OpenCL C kernel source text (the paper's target).
* :mod:`.host` — OpenCL host-side orchestration: C source text plus an
  executable :class:`~repro.lift.codegen.plan.HostPlan` for the virtual GPU
  runtime.
* :mod:`.plan` — the data model of a compiled host program (plan ops,
  kernel sources, allocation decisions), with no LIFT front end
  imported, so a cached plan unpickles without it.
* :mod:`.arena` — the backend-neutral :class:`~repro.lift.codegen.arena.
  ArenaProgram` three-address artifact every executable emitter consumes,
  plus the :class:`~repro.lift.codegen.arena.Workspace` slot arena.
* :mod:`.numpy_backend` — the vectorising compiler: lowers a kernel to
  its :class:`ArenaProgram` and compiles the zero-allocation NumPy source
  that program renders to.
* :mod:`.loops` — compiled parallel fused loops over the same
  :class:`ArenaProgram` (numba jit or C-via-system-compiler tiers) for
  flat ``_gid`` programs, in one form: a loop over Z-plane blocks, either
  a scheme's two-level step (:func:`~repro.lift.codegen.loops.
  compile_step`) or one program's own launch (:func:`~repro.lift.
  codegen.loops.compile_launch`).  For a program the loop emitter
  declines the virtual runtime runs the NumPy-steady kernel instead.
"""

import importlib

__all__ = ["ArenaProgram", "HostPlan", "HostProgram", "KernelSource",
           "LoopsUnsupported", "Workspace", "available_tiers",
           "compile_host", "compile_kernel", "compile_numpy"]

#: the submodule each export lives in, imported on first access (PEP 562):
#: a compiled step loads neither the OpenCL emitter nor the host planner,
#: and a cached host plan only its data model
_LAZY = {"KernelSource": "plan", "compile_kernel": "opencl",
         "HostPlan": "plan", "HostProgram": "plan", "compile_host": "host",
         "compile_numpy": "numpy_backend",
         "ArenaProgram": "arena", "Workspace": "arena",
         "LoopsUnsupported": "loops", "available_tiers": "loops"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
