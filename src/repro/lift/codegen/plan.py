"""The data model of a compiled host program (paper Listing 5).

What :func:`~repro.lift.codegen.host.compile_host` produces and the
virtual GPU runtime (:mod:`repro.gpu.runtime`) executes: the
:class:`HostPlan` op list, each launch's :class:`KernelSource` and that
kernel's memory-allocation decision.  Only :mod:`..arith` and
:mod:`..types` are imported here, and the plan names parameters instead
of holding the front end's ``Param`` nodes, so a plan loaded from the
loops disk cache loads no LIFT front end.  A kernel lowers its
:class:`~repro.lift.codegen.arena.ArenaProgram` and analyses its
:class:`~repro.lift.resources.Resources` at most once, on first use,
and keeps both; a cached plan carries them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..arith import ArithExpr
from ..resources import Resources
from ..types import ScalarType

__all__ = ["ArgBinding", "BufferDecl", "CopyIn", "CopyOut", "HaloExchange",
           "HostPlan", "HostProgram", "KernelAllocation", "KernelSource",
           "Launch", "OutputAllocation", "ParamInfo"]


# --- kernels ------------------------------------------------------------------------

@dataclass
class OutputAllocation:
    """Where one kernel output lives."""

    scalar: ScalarType
    count: ArithExpr | None          # symbolic element count (None if aliased)
    #: the input parameter reused in place, if any
    aliased_name: str | None = None

    @property
    def is_in_place(self) -> bool:
        return self.aliased_name is not None


@dataclass
class KernelAllocation:
    """Complete allocation decision for one kernel."""

    outputs: list[OutputAllocation]
    size_params: list[str] = field(default_factory=list)

    @property
    def allocates_output(self) -> bool:
        return any(not o.is_in_place for o in self.outputs)

    @property
    def written_param_names(self) -> set[str]:
        """Names of input parameters the kernel writes in place.

        The steady-state NumPy emitter needs this to decide whether an
        affine gather may be a *view* into the source array (safe only
        when the kernel never writes it) or must copy to preserve
        read-before-write semantics.
        """
        return {o.aliased_name for o in self.outputs if o.is_in_place}


@dataclass
class ParamInfo:
    """How one kernel argument is emitted."""

    name: str
    c_decl: str
    is_array: bool
    scalar: ScalarType


@dataclass
class KernelSource:
    """A generated OpenCL kernel: text plus launch metadata."""

    name: str
    source: str
    params: list[ParamInfo]
    allocation: KernelAllocation
    size_params: list[str]
    global_size: ArithExpr | None = None
    #: the (lowered) kernel Lambda this source was generated from — kept so
    #: the virtual runtime can compile the matching NumPy realisation and
    #: run resource analysis on the very same IR
    kernel_lambda: object | None = None
    #: that Lambda's :class:`~repro.lift.codegen.arena.ArenaProgram` and
    #: per-work-item :class:`Resources`: see :meth:`arena_program` and
    #: :meth:`kernel_resources`
    program: object | None = field(default=None, compare=False, repr=False)
    resources: Resources | None = field(default=None, compare=False,
                                        repr=False)

    def __str__(self) -> str:
        return self.source

    def source_key(self) -> str:
        """Content hash identifying this kernel across devices and
        plans: by source, not by name alone (a name may stand for
        different code, e.g. the single- and double-precision
        ``volume_kernel``)."""
        basis = self.source if self.source else repr(self.kernel_lambda)
        return f"{self.name}:{hashlib.sha1(basis.encode()).hexdigest()}"

    def arena_program(self):
        """:attr:`program`, lowered from :attr:`kernel_lambda` on first
        use (:func:`~repro.lift.codegen.numpy_backend.lower_arena`)."""
        if self.program is None:
            from .numpy_backend import lower_arena
            self.program = lower_arena(self.kernel_lambda, self.name,
                                       lower=False)
        return self.program

    def kernel_resources(self) -> Resources:
        """:attr:`resources`, analysed from :attr:`kernel_lambda` on
        first use (:func:`~repro.lift.analysis.analyse_kernel`)."""
        if self.resources is None:
            from ..analysis import analyse_kernel
            self.resources = analyse_kernel(self.kernel_lambda)
        return self.resources


# --- plan ops -----------------------------------------------------------------------

@dataclass
class BufferDecl:
    """Allocate a device buffer of ``count`` elements of ``scalar``."""

    name: str
    scalar: ScalarType
    count: ArithExpr


@dataclass
class CopyIn:
    """Host array ``host_name`` -> device buffer ``buffer``."""

    host_name: str
    buffer: str


@dataclass
class ArgBinding:
    """One kernel argument: where its value comes from at launch time."""

    param_name: str
    kind: str           # "buffer" | "scalar" | "size"
    source: object      # buffer name (str) | host param name (str) | ArithExpr


@dataclass
class Launch:
    """Enqueue one kernel."""

    kernel: KernelSource
    args: list[ArgBinding]
    out_buffer: str | None       # None when the kernel writes in place
    global_size: ArithExpr | None


@dataclass
class CopyOut:
    """Device buffer ``buffer`` -> host result ``host_name``."""

    buffer: str
    host_name: str


@dataclass
class HaloExchange:
    """Move ``count`` elements of a named resident buffer between devices.

    The multi-device executor (:class:`repro.gpu.multi.MultiGPU`)
    schedules one of these per neighbouring shard pair and per direction
    after each iteration's step and rotation: elements
    ``[src_start, src_start+count)`` of ``buffer`` on plan ``src_device``
    replace ``[dst_start, dst_start+count)`` on ``dst_device``.
    ``buffer`` names a resident rotation binding (a host parameter name),
    not a raw buffer: the exchange follows the leapfrog rotation, always
    touching the freshly computed field (``prev1_h`` after it).
    Priced by :func:`repro.gpu.costmodel.halo_exchange_time_ms`
    (peer-to-peer over a same-board interconnect, else staged through
    host PCIe).
    """

    src_device: int
    dst_device: int
    buffer: str
    src_start: int
    dst_start: int
    count: int


@dataclass
class HostPlan:
    """The executable orchestration schedule.

    ``device`` places the plan: 0 for single-device programs (the
    compiler default), the shard index for per-device plans derived by
    the multi-device decomposition.
    """

    buffers: list[BufferDecl] = field(default_factory=list)
    ops: list[object] = field(default_factory=list)
    result_buffer: str | None = None
    device: int = 0

    def required_sizes(self) -> dict[str, list[str]]:
        """Every symbolic size variable the plan needs, mapped to the
        consumers (buffer decls / launches) that need it — the basis for
        up-front validation instead of a bare ``KeyError`` deep inside
        ``arith.evaluate``."""
        needed: dict[str, list[str]] = {}

        def need(var: str, consumer: str) -> None:
            needed.setdefault(var, []).append(consumer)

        for decl in self.buffers:
            for v in decl.count.free_vars():
                need(str(v), f"buffer {decl.name!r} (count {decl.count!r})")
        for op in self.ops:
            if not isinstance(op, Launch):
                continue
            where = f"launch {op.kernel.name!r}"
            if op.global_size is not None:
                for v in op.global_size.free_vars():
                    need(str(v), f"{where} (global size {op.global_size!r})")
            for b in op.args:
                if b.kind == "size" and isinstance(b.source, ArithExpr):
                    for v in b.source.free_vars():
                        need(str(v), f"{where} (size arg {b.param_name!r})")
            for s in op.kernel.size_params:
                need(s, f"{where} (kernel size param {s!r})")
        return needed

    def missing_sizes(self, sizes: dict) -> dict[str, list[str]]:
        """The subset of :meth:`required_sizes` absent from ``sizes``."""
        return {v: c for v, c in self.required_sizes().items()
                if v not in sizes}

    def required_inputs(self) -> dict[str, list[str]]:
        """Host parameter names the plan reads, mapped to their consumers."""
        needed: dict[str, list[str]] = {}
        for op in self.ops:
            if isinstance(op, CopyIn):
                needed.setdefault(op.host_name, []).append(
                    f"transfer to buffer {op.buffer!r}")
            elif isinstance(op, Launch):
                for b in op.args:
                    if b.kind == "scalar":
                        needed.setdefault(str(b.source), []).append(
                            f"scalar arg {b.param_name!r} of launch "
                            f"{op.kernel.name!r}")
        return needed

    def missing_inputs(self, inputs: dict) -> dict[str, list[str]]:
        """The subset of :meth:`required_inputs` absent from ``inputs``."""
        return {n: c for n, c in self.required_inputs().items()
                if n not in inputs}

    def host_buffers(self) -> dict[str, str]:
        """Transferred host parameter name -> the device buffer its
        ``CopyIn`` fills (how results name a parameter's device copy)."""
        return {op.host_name: op.buffer for op in self.ops
                if isinstance(op, CopyIn)}

    def launches(self) -> list[Launch]:
        """The plan's launches, in order."""
        return [op for op in self.ops if isinstance(op, Launch)]

    def step_arguments(self, values: dict, sizes: dict, rotating,
                       out: str | None = None
                       ) -> tuple[dict, list[tuple[str, str]]]:
        """The keyword arguments of the launches run as one step: each
        launch's bindings and its lowered program's size names, the
        first launch's value per name, from ``values`` (host parameter
        name -> the array behind its buffer, or the scalar).  A buffer
        whose host parameter is in ``rotating`` is left to the caller, as
        a ``(parameter, host parameter)`` pair.  A launch's output, the
        buffer no host parameter fills, is left as a ``(parameter,
        out)`` pair, or with ``out=None`` not bound: a step overwrites a
        rotating level in place.  Returns ``(fixed, rotating)``."""
        hosts = {b: n for n, b in self.host_buffers().items()}
        fixed: dict = {}
        pairs: list[tuple[str, str]] = []
        for op in self.launches():
            for b in op.args:
                name = b.param_name
                if b.kind == "size":
                    fixed.setdefault(name, int(sizes[name]))
                elif b.kind == "scalar":
                    fixed.setdefault(name, values[b.source])
                elif b.source not in hosts:
                    if out is not None:
                        pairs.append((name, out))
                elif hosts[b.source] in rotating:
                    pairs.append((name, hosts[b.source]))
                else:
                    fixed.setdefault(name, values[hosts[b.source]])
            for s in op.kernel.arena_program().size_params:
                fixed.setdefault(s, int(sizes[s]))
        return fixed, pairs

    def written_buffers(self) -> set[str]:
        """Device buffers some launch writes: every output buffer, and
        the buffer behind each parameter a kernel updates in place."""
        written: set[str] = set()
        for op in self.ops:
            if not isinstance(op, Launch):
                continue
            if op.out_buffer is not None:
                written.add(op.out_buffer)
            in_place = op.kernel.allocation.written_param_names
            written.update(b.source for b in op.args
                           if b.kind == "buffer" and b.param_name in in_place)
        return written


@dataclass
class HostProgram:
    """Everything :func:`~.host.compile_host` produces for one host
    program; ``param_names`` are its host parameters, in order."""

    source: str
    plan: HostPlan
    kernels: dict[str, KernelSource]
    param_names: list[str]

    def portable(self) -> "HostProgram":
        """This program as the loops disk cache stores it: every kernel
        carries its lowered program (without ``alloc``) and its
        resources, and no LIFT AST node is left (no ``kernel_lambda``),
        so unpickling it loads no front end.  A kernel not yet lowered
        or analysed is, and keeps the result."""
        stripped: dict[int, KernelSource] = {}

        def strip(ks: KernelSource) -> KernelSource:
            if id(ks) not in stripped:
                stripped[id(ks)] = replace(
                    ks, kernel_lambda=None,
                    program=replace(ks.arena_program(), alloc=None),
                    resources=ks.kernel_resources())
            return stripped[id(ks)]

        ops = [replace(op, kernel=strip(op.kernel))
               if isinstance(op, Launch) else op for op in self.plan.ops]
        return replace(self, plan=replace(self.plan, ops=ops),
                       kernels={n: strip(ks) for n, ks in self.kernels.items()})
