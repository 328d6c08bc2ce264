"""OpenCL host-side code generation (paper §IV-A, Table I, Listing 5).

A *host program* is a LIFT Lambda whose body composes the host primitives:
``ToGPU`` / ``ToHost`` transfers, ``OclKernel`` launches, and host-level
``WriteTo`` which redirects a kernel's output buffer onto an existing device
buffer (the in-place orchestration of the acoustics two-kernel scheme).

:func:`compile_host` produces both artefacts the paper describes:

* **C host source** — ``clCreateBuffer`` / ``enqueueWriteBuffer`` /
  ``setArg`` / ``enqueueNDRangeKernel`` / ``enqueueReadBuffer`` text, with a
  ``clFinish`` synchronisation between dependent kernels;
* an executable :class:`HostPlan` — an ordered op list that the virtual GPU
  runtime (:mod:`repro.gpu.runtime`) interprets, reusing the same buffer
  and argument-binding decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import obs as _obs
from ..arith import ArithExpr, Var
from ..ast import Expr, FunCall, Lambda, Literal, Param
from ..patterns import Id, OclKernel, ToGPU, ToHost, TupleCons, WriteTo
from ..types import ArrayType, ScalarType, LiftType, TypeError_
from ..type_inference import infer
from .opencl import KernelSource, compile_kernel


class HostCodegenError(Exception):
    """Raised for host programs outside the supported orchestration subset."""


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
    after each iteration's launches: elements
    ``[src_start, src_start+count)`` of ``buffer`` on plan ``src_device``
    replace ``[dst_start, dst_start+count)`` on ``dst_device``.
    ``buffer`` names a resident rotation binding (host parameter name or
    the ``"__out__"`` sentinel), not a raw buffer: the exchange follows
    the leapfrog rotation, always touching the freshly computed field.
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
    """Everything :func:`compile_host` produces for one host program."""

    source: str
    plan: HostPlan
    kernels: dict[str, KernelSource]
    params: list[Param]


# --- compilation ----------------------------------------------------------------------


def compile_host(program: Lambda, name: str = "host") -> HostProgram:
    """Compile a host-orchestration Lambda into source text + a HostPlan.

    Traced as a ``lift.compile_host`` span when observability is active;
    the per-kernel :func:`compile_kernel` calls nest under it."""
    o = _obs.get()
    if o is None:
        return _compile_host(program, name, None)
    with o.tracer.span("lift.compile_host", "compile", host=name):
        return _compile_host(program, name, o)


def _compile_host(program: Lambda, name: str, o) -> HostProgram:
    if o is not None:
        with o.tracer.span("lift.type_inference", "compile", wall=True):
            infer(program)
    else:
        infer(program)
    plan = HostPlan()
    kernels: dict[str, KernelSource] = {}
    lines: list[str] = [f"// host program: {name}"]
    # value of each visited node: ("buffer", name) | ("host", param name)
    memo: dict[int, tuple[str, str]] = {}
    buf_count = [0]
    kernel_count = [0]

    def fresh_buffer(scalar: ScalarType, count: ArithExpr, hint: str) -> str:
        bname = f"d_{hint}_{buf_count[0]}"
        buf_count[0] += 1
        plan.buffers.append(BufferDecl(bname, scalar, count))
        lines.append(f"cl_mem {bname} = clCreateBuffer(ctx, CL_MEM_READ_WRITE, "
                     f"sizeof({scalar.c_name()})*({count.to_c()}), NULL, &err);")
        return bname

    def visit(expr: Expr) -> tuple[str, str]:
        key = id(expr)
        if key in memo:
            return memo[key]
        value = _visit(expr)
        memo[key] = value
        return value

    def _visit(expr: Expr) -> tuple[str, str]:
        if isinstance(expr, Param):
            return ("host", expr.name)
        if isinstance(expr, Literal):
            return ("literal", str(expr.value))
        if not isinstance(expr, FunCall):
            raise HostCodegenError(f"unsupported host expression {expr!r}")
        fun = expr.fun
        if isinstance(fun, Id):
            return visit(expr.args[0])
        if isinstance(fun, ToGPU):
            kind, src = visit(expr.args[0])
            if kind != "host":
                raise HostCodegenError("ToGPU expects a host array parameter")
            t = expr.args[0].type
            if not isinstance(t, ArrayType):
                raise HostCodegenError("ToGPU of a non-array")
            total = t.size
            elem = t.elem
            while isinstance(elem, ArrayType):
                total = total * elem.size
                elem = elem.elem
            bname = fresh_buffer(elem, total, src)  # type: ignore[arg-type]
            plan.ops.append(CopyIn(src, bname))
            lines.append(f"clEnqueueWriteBuffer(queue, {bname}, CL_TRUE, 0, "
                         f"sizeof({elem.c_name()})*({total.to_c()}), {src}, 0, NULL, NULL);")
            return ("buffer", bname)
        if isinstance(fun, ToHost):
            kind, src = visit(expr.args[0])
            if kind != "buffer":
                raise HostCodegenError("ToHost expects a device buffer")
            host_name = f"result_{src}"
            plan.ops.append(CopyOut(src, host_name))
            plan.result_buffer = src
            lines.append(f"clEnqueueReadBuffer(queue, {src}, CL_TRUE, 0, /*size*/, "
                         f"{host_name}, 0, NULL, NULL);")
            return ("host", host_name)
        if isinstance(fun, WriteTo):
            kind, target = visit(expr.args[0])
            if kind != "buffer":
                raise HostCodegenError("host WriteTo target must be a device buffer")
            inner = expr.args[1]
            if not (isinstance(inner, FunCall) and isinstance(inner.fun, OclKernel)):
                raise HostCodegenError(
                    "host WriteTo value must be an OclKernel launch")
            return launch(inner, forced_out=target)
        if isinstance(fun, OclKernel):
            return launch(expr, forced_out=None)
        raise HostCodegenError(f"unsupported host pattern {fun!r}")

    def launch(expr: FunCall, forced_out: str | None) -> tuple[str, str]:
        fun: OclKernel = expr.fun  # type: ignore[assignment]
        kname = fun.kernel_name
        if kname in kernels:
            kname = f"{fun.kernel_name}_{kernel_count[0]}"
        kernel_count[0] += 1
        ks = compile_kernel(fun.kernel, kname)
        kernels[kname] = ks
        bindings: list[ArgBinding] = []
        arg_values = [visit(a) for a in expr.args]
        ai = iter(arg_values)
        lines.append(f"// kernel launch: {kname}")
        slot = 0
        for p in ks.params:
            if p.name == "out":
                continue
            if p.name in ks.size_params:
                bindings.append(ArgBinding(p.name, "size", Var(p.name)))
                lines.append(f"clSetKernelArg({kname}, {slot}, sizeof(int), &{p.name});")
                slot += 1
                continue
            kind, src = next(ai)
            if p.is_array:
                if kind != "buffer":
                    raise HostCodegenError(
                        f"kernel arg {p.name} needs a device buffer (use ToGPU)")
                bindings.append(ArgBinding(p.name, "buffer", src))
                lines.append(f"clSetKernelArg({kname}, {slot}, sizeof(cl_mem), &{src});")
            else:
                bindings.append(ArgBinding(p.name, "scalar", src))
                lines.append(f"clSetKernelArg({kname}, {slot}, "
                             f"sizeof({p.scalar.c_name()}), &{src});")
            slot += 1

        out_buffer: str | None
        if ks.allocation.allocates_output:
            non_aliased = [o for o in ks.allocation.outputs if not o.is_in_place]
            out = non_aliased[0]
            if forced_out is not None:
                out_buffer = forced_out
            else:
                out_buffer = fresh_buffer(out.scalar, out.count, "out")
            bindings.append(ArgBinding("out", "buffer", out_buffer))
            lines.append(f"clSetKernelArg({kname}, {slot}, sizeof(cl_mem), &{out_buffer});")
        else:
            # In-place kernel: the result is the aliased argument's buffer.
            aliased = [o.aliased_param.name for o in ks.allocation.outputs
                       if o.aliased_param is not None]
            pos = [i for i, p in enumerate(fun.kernel.params)
                   if p.name == aliased[0]]
            kind, src = arg_values[pos[0]]
            if forced_out is not None and forced_out != src:
                raise HostCodegenError(
                    "host WriteTo target disagrees with the kernel's own "
                    "in-place WriteTo buffer")
            out_buffer = None
            plan.result_buffer = src

        gs = fun.global_size if fun.global_size is not None else ks.global_size
        plan.ops.append(Launch(ks, bindings, out_buffer, gs))
        gs_c = gs.to_c() if gs is not None else "N"
        lines.append(f"size_t gsize = {gs_c};")
        lines.append(f"clEnqueueNDRangeKernel(queue, {kname}, 1, NULL, &gsize, NULL, 0, NULL, NULL);")
        lines.append("clFinish(queue); // synchronise dependent kernels")
        if out_buffer is not None:
            plan.result_buffer = out_buffer
            return ("buffer", out_buffer)
        return ("buffer", plan.result_buffer)  # type: ignore[arg-type]

    body = program.body
    if isinstance(body, FunCall) and isinstance(body.fun, TupleCons):
        for a in body.args:
            visit(a)
    else:
        visit(body)

    return HostProgram(source="\n".join(lines), plan=plan, kernels=kernels,
                       params=list(program.params))
