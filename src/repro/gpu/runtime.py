"""Virtual OpenCL runtime: executes LIFT host plans on a modelled GPU.

Executes a :class:`~repro.lift.codegen.host.HostPlan` produced by the LIFT
host-code generator:

* device buffers are NumPy arrays; ``CopyIn``/``CopyOut`` model PCIe
  transfers;
* each ``Launch`` runs *the same kernel Lambda's program* — compiled as
  a one-program step, or its NumPy realisation where the loop emitter
  declines (bit-correct results) — and records a
  :class:`ProfilingEvent` whose duration comes from the cost model +
  workgroup autotuning — the virtual analogue of the paper's "medians of
  2000 executions ... using the OpenCL profiling API.  Only running
  times of each kernel are reported";
* dependent kernels are implicitly synchronised (the plan is sequential,
  like the generated ``clFinish`` calls).

One interpreter does this: :class:`ResidentPlan` validates the plan,
allocates, uploads every input before the first launch (Listing 5's
order) and reads the newest level back.  :meth:`VirtualGPU.execute` runs
the launches once, one by one, with nothing rotating.  Every loop steps
a plan opened by :meth:`ResidentPlan.stepping` instead — one compiled
step over two time levels, the launches modelled only:
:meth:`VirtualGPU.execute_many`, a ``resident`` simulation and every
shard of a pool alike.

The runtime's kernel-time path is shared with the benchmark harness, so
table/figure regeneration and actual execution agree by construction.

Failure semantics mirror OpenCL 1.2 (see ``docs/resilience.md``): plan
ops, inputs and symbolic sizes are validated up front, transfers whose
element counts disagree with the device buffer raise
:class:`~.errors.ClInvalidBufferSize` instead of silently truncating,
device-memory capacity is enforced when the :class:`~.device.DeviceSpec`
declares ``global_mem_bytes``, and an opt-in :class:`~.faults.FaultPlan`
injects allocation/transfer/launch/device failures for resilience
testing.
"""

from __future__ import annotations

import hashlib
import time as _time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .. import obs as _obs
from ..obs.tracer import ModelClock
from ..lift.analysis import Resources, analyse_kernel
from ..lift.codegen.arena import Workspace, arena_stats
from ..lift.codegen.host import (ArgBinding, BufferDecl, CopyIn, CopyOut,
                                 HostPlan, HostProgram, Launch)
from ..lift.codegen.loops import (_IN_PLACE, LoopsUnsupported, StepKernel,
                                  compile_launch, compile_step)
from ..lift.codegen.numpy_backend import NumpyKernel, compile_numpy
from .autotune import autotune_workgroup
from .costmodel import ImplTraits, KernelTiming, LIFT_TRAITS, transfer_time_ms
from .device import DeviceSpec
from .errors import (ClError, ClInvalidBufferSize, ClInvalidKernelArgs,
                     ClInvalidValue, ClDeviceLost, ClMemAllocationFailure,
                     ClOutOfResources, ClTransferCorrupted)
from .faults import FaultPlan

#: the kernel parameter whose bound index array drives the cost model's
#: gathered-access (DRAM-sector) pricing: the boundary kernels' flat
#: boundary-point index (``repro.acoustics.lift_programs``)
GATHER_INDEX_PARAM = "boundaryIndices"

#: Process-wide NumPy-kernel compile cache, keyed by kernel-*source* hash
#: (not kernel name: two programs may reuse a name for different code,
#: e.g. the single- vs double-precision variants of ``volume_kernel``).
#: Compiling the NumPy realisation of a kernel Lambda is pure — the same
#: source always yields the same compiled callable — so every
#: :class:`VirtualGPU` shares this table: spinning up a ``"name:k"``
#: device pool compiles each distinct kernel once, not once per device.
_NP_KERNEL_CACHE: dict[str, NumpyKernel] = {}

#: Companion cache for per-work-item resource analysis (same key).
_RESOURCES_CACHE: dict[str, Resources] = {}


def _kernel_source_key(ks) -> str:
    """Content hash identifying a kernel across VirtualGPU instances."""
    basis = ks.source if ks.source else repr(ks.kernel_lambda)
    return f"{ks.name}:{hashlib.sha1(basis.encode()).hexdigest()}"


#: real-seconds histogram buckets for ``repro_host_wallclock_seconds``
#: (the modelled-ms default buckets are the wrong scale for host time)
_WALLCLOCK_BUCKETS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                      1e-1, 3e-1, 1.0, 3.0, 10.0)


def kernel_cache_stats() -> dict:
    """Sizes of the process-wide kernel caches (for tests/diagnostics).

    ``np_kernels``/``resources`` count compile-cache entries (per kernel
    source hash: the NumPy kernel under a ``#steady`` suffix and the
    executable that runs it — its one-program launch step, or the NumPy
    kernel when the loop emitter declines — under ``#loops``; and the steps
    :meth:`VirtualGPU.compile_step` builds under ``#step``);
    ``arena`` reports the workspace arena's process-wide hit/miss
    counters and resident bytes
    (see :func:`repro.lift.codegen.arena.arena_stats`) — the temporaries
    of kernels running on the steady emitter; a compiled-loop kernel
    keeps nothing there; ``loops_disk``
    reports the on-disk compiled-artifact cache the cc tier shares
    across processes and, as ``cc_rung`` and ``cc_isa``, which rung of
    the compiler flag ladder and which x86-64 psABI level built them (see
    :func:`repro.lift.codegen.loops.loops_disk_cache_stats`).
    """
    from ..lift.codegen.loops import loops_disk_cache_stats
    return {"np_kernels": len(_NP_KERNEL_CACHE),
            "resources": len(_RESOURCES_CACHE),
            "arena": arena_stats(),
            "loops_disk": loops_disk_cache_stats()}


def clear_kernel_caches() -> None:
    """Drop the shared NumPy-kernel and resource-analysis caches (test
    isolation)."""
    _NP_KERNEL_CACHE.clear()
    _RESOURCES_CACHE.clear()


@dataclass
class ProfilingEvent:
    """One profiled command, times in milliseconds (modelled).

    Mirrors an OpenCL profiling event: besides the duration it carries
    modelled ``start_ms``/``end_ms`` timestamps on the executing GPU's
    :class:`~repro.obs.tracer.ModelClock` (or, when an observability
    session is active, on the shared session clock — which is what makes
    the event list map 1:1 onto trace spans).
    """

    kind: str                 # "kernel" | "h2d" | "d2h" | "backoff" |
    #                           "host_*" | "failed_*" (discarded attempts)
    name: str
    duration_ms: float
    timing: KernelTiming | None = None
    start_ms: float = 0.0     # modelled CL_PROFILING_COMMAND_START

    @property
    def end_ms(self) -> float:
        """Modelled ``CL_PROFILING_COMMAND_END`` timestamp."""
        return self.start_ms + self.duration_ms


@dataclass
class RunResult:
    """Outcome of executing a host plan."""

    result: np.ndarray | None
    buffers: dict[str, np.ndarray]
    events: list[ProfilingEvent]

    def kernel_time_ms(self, name_prefix: str | None = None) -> float:
        """Total modelled kernel time (only kernels, like the paper).

        ``name_prefix`` filters launches by kernel-name prefix (e.g.
        ``"volume"`` selects ``volume_kernel`` launches only).  Only
        *successful* launches count: work from attempts that a recovery
        policy discarded and re-ran is recorded under kind
        ``"failed_kernel"`` with names prefixed ``attemptN:`` (see
        :class:`repro.gpu.resilient.ResilientGPU`), so retried launches
        are never double-counted here — use :meth:`failed_time_ms` to
        audit the discarded work.  Host-fallback launches are relabelled
        ``host_kernel`` and charge no GPU time either.
        """
        return sum(e.duration_ms for e in self.events
                   if e.kind == "kernel"
                   and (name_prefix is None or e.name.startswith(name_prefix)))

    def transfer_time_ms(self) -> float:
        return sum(e.duration_ms for e in self.events
                   if e.kind in ("h2d", "d2h"))

    def halo_time_ms(self) -> float:
        """Modelled inter-device halo-exchange time (kind ``"halo"``);
        always 0 for single-device runs — the multi-device executor is
        what emits halo events, kept separate from kernel and PCIe
        transfer time."""
        return sum(e.duration_ms for e in self.events if e.kind == "halo")

    def overhead_time_ms(self) -> float:
        """Modelled recovery overhead (retry backoff) added by policies."""
        return sum(e.duration_ms for e in self.events if e.kind == "backoff")

    def failed_time_ms(self) -> float:
        """Modelled time of discarded (failed-attempt) commands; their
        kinds carry a ``failed_`` prefix and never count as kernel or
        transfer time."""
        return sum(e.duration_ms for e in self.events
                   if e.kind.startswith("failed_"))


class VirtualGPU:
    """A virtual OpenCL device + queue executing LIFT host programs."""

    def __init__(self, device: DeviceSpec, traits: ImplTraits = LIFT_TRAITS,
                 autotune: bool = True, workgroup: int = 256,
                 faults: FaultPlan | None = None):
        self.device = device
        self.traits = traits
        self.autotune = autotune
        self.workgroup = workgroup
        self.faults = faults
        #: workspace arenas of prepared launches, keyed by (kernel,
        #: array shapes/dtypes, sizes) so repeated per-step execute()
        #: calls of the same program reuse their temporaries
        self._workspaces: dict[tuple, Workspace] = {}
        self._arena_reported = (0, 0)   # last (hits, misses) fed to obs
        #: modelled device clock stamping ProfilingEvent start/end times;
        #: when an observability session is active the session's shared
        #: clock is used instead, so all devices land on one timeline
        self.clock = ModelClock()

    # -- profiling -----------------------------------------------------------------
    def _record(self, events: list[ProfilingEvent], kind: str, name: str,
                duration_ms: float, timing: KernelTiming | None = None,
                **attrs) -> ProfilingEvent:
        """Record one profiled command: stamp it on the modelled clock,
        mirror it as a trace span, and feed the metrics registry."""
        o = _obs.get()
        if o is None:
            start = self.clock.now_ms
            self.clock.advance(duration_ms)
        else:
            sp = o.tracer.event(name, kind, duration_ms,
                                device=self.device.name, **attrs)
            start = sp.start_ms
            if kind == "kernel":
                o.metrics.histogram(
                    "repro_gpu_kernel_time_ms",
                    "Modelled kernel launch time",
                    ("kernel", "device")).observe(
                        duration_ms, kernel=name, device=self.device.name)
            elif kind in ("h2d", "d2h"):
                o.metrics.counter(
                    "repro_gpu_transfer_bytes_total",
                    "Bytes over the modelled host<->device interconnect",
                    ("direction",)).inc(
                        float(attrs.get("bytes", 0.0)), direction=kind)
        ev = ProfilingEvent(kind, name, duration_ms, timing, start_ms=start)
        events.append(ev)
        return ev

    # -- kernel caches -------------------------------------------------------------
    @staticmethod
    def _np_kernel(launch: Launch) -> NumpyKernel:
        """The launch's NumPy kernel from the process-wide
        :data:`_NP_KERNEL_CACHE`, looked up by source hash only (a name
        may stand for different code, e.g. the single- and
        double-precision ``volume_kernel``), so a pool of devices running
        the same program compiles each kernel once.  The entry is cached
        under a ``#steady`` suffix of the source hash: the runtime
        executes it directly, or hands its :class:`ArenaProgram` to the
        compiled-loop emitter.
        """
        ks = launch.kernel
        if ks.kernel_lambda is None:
            raise ClInvalidValue(
                f"kernel {ks.name!r} carries no kernel_lambda, so the "
                f"virtual runtime cannot compile its NumPy realisation; "
                f"build KernelSource through compile_kernel()/compile_host() "
                f"(which attach the Lambda) instead of constructing it by "
                f"hand", kernel=ks.name)
        key = _kernel_source_key(ks) + "#steady"
        nk = _NP_KERNEL_CACHE.get(key)
        if nk is None:
            nk = _NP_KERNEL_CACHE[key] = compile_numpy(
                ks.kernel_lambda, ks.name, lower=False)
        return nk

    @staticmethod
    def _exec_kernel(launch: Launch):
        """The executable that runs one launch of :meth:`execute`: the
        NumPy kernel's program as its own launch step
        (:func:`~repro.lift.codegen.loops.compile_launch`), or — the one
        fallback rule — the NumPy kernel itself when the loop emitter
        declines, because the program is loop-opaque or no compiled tier
        exists on this host.  Both run the same program, so the choice
        never changes a result, and both name it as ``tier`` (``numpy``
        for the fallback).  Remembered process-wide under a ``#loops``
        suffix of the same source hash."""
        key = _kernel_source_key(launch.kernel) + "#loops"
        ex = _NP_KERNEL_CACHE.get(key)
        if ex is None:
            nk = VirtualGPU._np_kernel(launch)
            try:
                ex = compile_launch(nk.program)
            except LoopsUnsupported:
                ex = nk
            _NP_KERNEL_CACHE[key] = ex
        return ex

    @staticmethod
    def launch_tier(plan: HostPlan) -> str:
        """The tier :meth:`execute` runs ``plan``'s launches on, on any
        device: each executable's (:meth:`_exec_kernel`), ``+``-joined
        where they differ."""
        return "+".join(dict.fromkeys(
            VirtualGPU._exec_kernel(op).tier for op in plan.ops
            if isinstance(op, Launch)))

    def compile_step(self, plan: HostPlan,
                     leapfrog: tuple[str, ...]) -> StepKernel:
        """The plan's launches as one step over two time levels
        (:func:`~repro.lift.codegen.loops.compile_step`), built from the
        programs of their NumPy kernels (:meth:`_np_kernel`), so the plan
        a caller compiled is the one that runs.

        ``leapfrog`` is the plan's rotation cycle of time levels, oldest
        first and ``"__out__"`` last.  The step overwrites the oldest
        level in place, so the sweep must read it as ``prev``, the
        boundary program must scatter into the sweep's output, and a
        parameter name two launches share must name one source.  Raises
        :class:`~repro.lift.codegen.loops.LoopsUnsupported` when the plan
        is wired otherwise, or when ``compile_step`` refuses the
        programs.  With no compiled tier on the host the step is the
        same schedule on whole arrays (``tier="numpy"``).

        The step is remembered process-wide under a ``#step`` suffix of
        its launches' source hashes, like :meth:`_exec_kernel`'s launches,
        so every simulation of a scheme shares one step and its compiled
        specialisations; only the wiring check runs per plan."""
        launches = [op for op in plan.ops if isinstance(op, Launch)]
        key = "+".join(_kernel_source_key(op.kernel)
                       for op in launches) + "#step"
        step = _NP_KERNEL_CACHE.get(key)
        if step is None:
            programs = [self._np_kernel(op).program for op in launches]
            try:
                step = compile_step(programs)
            except LoopsUnsupported:
                # no compiled tier (programs the step refuses are
                # refused again, by the same check)
                step = compile_step(programs, tier="numpy")
            _NP_KERNEL_CACHE[key] = step
        sources: dict[str, object] = {}
        for op in launches:
            for b in op.args:
                if b.param_name == "out" or b.kind == "size":
                    continue
                if sources.setdefault(b.param_name, b.source) != b.source:
                    raise LoopsUnsupported(
                        f"parameter {b.param_name!r} is bound to both "
                        f"{sources[b.param_name]!r} and {b.source!r}")
        out = launches[0].out_buffer
        wired = {_IN_PLACE: plan.host_buffers().get(leapfrog[0])}
        if step.links is not None:
            wired[step.links[0]] = out
        if (leapfrog[-1] != "__out__" or out is None
                or any(sources.get(n) != b for n, b in wired.items())):
            raise LoopsUnsupported(
                f"the launches of {step.name} do not overwrite "
                f"{leapfrog[0]!r} with their output")
        return step

    def _workspace_for(self, nk: NumpyKernel, args: list,
                       out_array: np.ndarray | None,
                       size_kwargs: dict[str, int]) -> Workspace:
        """Arena of a prepared launch: keyed by kernel object, array
        shapes/dtypes and sizes, so a simulation stepping through
        repeated execute() calls reuses one set of temporaries while a
        different grid/precision never shares buffers with it.  Sharing
        one across plans is safe: launches run one at a time, and
        ``const`` slots are keyed by every scalar argument."""
        shapes = tuple((a.shape, a.dtype.str) for a in args
                       if isinstance(a, np.ndarray))
        if out_array is not None:
            shapes += ((out_array.shape, out_array.dtype.str),)
        key = (nk.name, id(nk), shapes, tuple(sorted(size_kwargs.items())))
        ws = self._workspaces.get(key)
        if ws is None:
            ws = self._workspaces[key] = Workspace(
                f"{self.device.name}:{nk.name}")
        return ws

    def _observe_host_time(self, o, kernel_name: str,
                           host_secs: float) -> None:
        """Feed the host-wallclock histogram and arena gauges (the real
        seconds a launch, or a fused step, took on the host, distinct
        from the modelled kernel clock)."""
        o.metrics.histogram(
            "repro_host_wallclock_seconds",
            "Real host seconds spent executing a kernel launch, or one "
            "compiled step that runs all of a step's launches",
            ("kernel", "device"), buckets=_WALLCLOCK_BUCKETS).observe(
                host_secs, kernel=kernel_name, device=self.device.name)
        st = arena_stats()
        o.metrics.gauge(
            "repro_arena_bytes",
            "Bytes resident in live workspace arenas (process-wide)",
            ("device",)).set(st["nbytes"], device=self.device.name)
        last_h, last_m = self._arena_reported
        dh, dm = st["hits"] - last_h, st["misses"] - last_m
        ctr = o.metrics.counter(
            "repro_arena_slot_requests_total",
            "Workspace-arena slot requests (hit = buffer reused, "
            "miss = slot allocated)", ("outcome",))
        if dh > 0:
            ctr.inc(dh, outcome="hit")
        if dm > 0:
            ctr.inc(dm, outcome="miss")
        self._arena_reported = (st["hits"], st["misses"])

    def _kernel_resources(self, launch: Launch) -> Resources:
        key = _kernel_source_key(launch.kernel)
        res = _RESOURCES_CACHE.get(key)
        if res is None:
            res = _RESOURCES_CACHE[key] = analyse_kernel(
                launch.kernel.kernel_lambda)
        return res

    # -- buffers / transfers ------------------------------------------------------------
    @staticmethod
    def _guard_elems(sizes: dict[str, int]) -> int:
        """The documented guard plane: state buffers are padded to
        ``NP = N + Nx*Ny`` elements (see ``acoustics.lift_programs``), so a
        host array may legitimately be up to ``NP - N`` elements shorter
        than its device buffer."""
        if "NP" in sizes and "N" in sizes:
            return max(0, int(sizes["NP"]) - int(sizes["N"]))
        return 0

    def _use_host_ptr(self, decl: BufferDecl, host, count: int,
                      guard: int, written: bool) -> bool:
        """Whether host array ``host`` can back buffer ``decl`` of
        ``count`` elements in place (``CL_MEM_USE_HOST_PTR``).

        Kernels receive the array itself, so it must be a flat,
        C-contiguous, writable ndarray of the declared dtype and exact
        element count — anything else is a typed error.  Storage width
        is a host binding, not a device type: a buffer no kernel writes
        (``written`` false) may also be backed by a signed-integer array
        *narrower* than its declared integer type — every value it holds
        is one the declared type holds, and the executable kernels widen
        on load.  The one tolerated size mismatch is the same as for
        transfers: an array short by at most the guard plane returns
        ``False`` and the caller allocates and copies instead.
        """
        dtype = np.dtype(decl.scalar.np_dtype)
        ok = (isinstance(host, np.ndarray) and host.ndim == 1
              and host.flags.c_contiguous and host.flags.writeable)
        if ok and host.dtype != dtype:
            ok = (not written and dtype.kind == "i" and host.dtype.kind == "i"
                  and host.dtype.itemsize < dtype.itemsize)
        if not ok:
            raise ClInvalidBufferSize(
                f"cannot bind {type(host).__name__} (shape "
                f"{getattr(host, 'shape', None)}, dtype "
                f"{getattr(host, 'dtype', None)}, strides "
                f"{getattr(host, 'strides', None)}) to device buffer "
                f"{decl.name!r} in place: it takes a flat, C-contiguous, "
                f"writable ndarray of dtype {dtype}"
                + (" (or, as no kernel writes it, a narrower signed "
                   "integer)" if dtype.kind == "i" and not written else ""),
                buffer=decl.name, dtype=str(dtype))
        if host.size == count:
            return True
        if 0 < count - host.size <= guard:
            return False
        raise ClInvalidBufferSize(
            f"cannot bind a host array of {host.size} elements to device "
            f"buffer {decl.name!r} of {count} in place (symbolic count "
            f"{decl.count!r}); only a shortfall of up to the guard plane "
            f"({guard} elements) is tolerated, by allocating and copying",
            buffer=decl.name, host_elems=int(host.size),
            buffer_elems=count, guard_elems=guard)

    def _allocate_buffers(self, plan: HostPlan, sizes: dict[str, int],
                          bound: dict[str, np.ndarray] | None = None,
                          at_least: dict[str, int] | None = None,
                          setup_step: int | None = None
                          ) -> dict[str, np.ndarray]:
        """``clCreateBuffer`` for every declared buffer, with device-memory
        capacity enforcement when the DeviceSpec declares a capacity.

        ``bound`` maps buffer names to host arrays that become the
        buffer itself instead of a fresh allocation (see
        :meth:`_use_host_ptr`).  The device holds the *declared* type:
        a bound array counts ``count × declared itemsize`` against the
        device capacity like any other buffer, also when the host keeps
        it in a narrower integer.  A name ``bound`` maps to ``None`` is
        declared without host memory: it counts against capacity and
        gets its ``alloc:`` event like the rest, but what stands in for
        it is a read-only zero-stride view of its size, which no launch
        can write.  ``at_least`` maps buffer names to a minimum element
        count above the declared one (the output level of a two-level
        plan is as large as its cycle peers).  ``setup_step`` stamps the
        ``alloc`` fault sites, as it does :meth:`_copy_in`'s."""
        buffers: dict[str, np.ndarray] = {}
        cap = self.device.global_mem_bytes
        max_alloc = self.device.max_alloc_bytes
        used = 0
        guard = self._guard_elems(sizes)
        written = plan.written_buffers() if bound else ()
        o = _obs.get()
        for decl in plan.buffers:
            count = int(decl.count.evaluate(sizes))
            if count <= 0:
                raise ClInvalidBufferSize(
                    f"buffer {decl.name!r} has non-positive element count "
                    f"{count} (symbolic count {decl.count!r} under sizes "
                    f"{sizes})", buffer=decl.name, count=count)
            if at_least:
                count = max(count, at_least.get(decl.name, 0))
            dtype = np.dtype(decl.scalar.np_dtype)
            nbytes = count * dtype.itemsize
            if self.faults is not None and self.faults.should_inject(
                    "alloc", f"alloc:{decl.name}", setup_step):
                raise ClMemAllocationFailure(
                    f"clCreateBuffer failed for {decl.name!r} "
                    f"({nbytes} B) on {self.device.name}",
                    buffer=decl.name, requested_bytes=nbytes, injected=True)
            if cap and nbytes > max_alloc:
                raise ClInvalidBufferSize(
                    f"buffer {decl.name!r} needs {nbytes} B but "
                    f"{self.device.name} caps single allocations at "
                    f"{max_alloc} B (CL_DEVICE_MAX_MEM_ALLOC_SIZE = 1/4 of "
                    f"{cap} B global memory)",
                    buffer=decl.name, requested_bytes=nbytes,
                    max_alloc_bytes=max_alloc)
            if cap and used + nbytes > cap:
                raise ClMemAllocationFailure(
                    f"allocating {decl.name!r} ({nbytes} B) exceeds "
                    f"{self.device.name} global memory: {used} B of {cap} B "
                    f"already in use", buffer=decl.name,
                    requested_bytes=nbytes, in_use_bytes=used,
                    capacity_bytes=cap)
            used += nbytes
            host = bound.get(decl.name) if bound else None
            if host is None and bound and decl.name in bound:
                buffers[decl.name] = np.broadcast_to(np.zeros((), dtype),
                                                     (count,))
            elif host is not None and self._use_host_ptr(
                    decl, host, count, guard, decl.name in written):
                buffers[decl.name] = host
            else:
                buffers[decl.name] = np.zeros(count, dtype=dtype)
            if o is not None:
                # instantaneous on the modelled timeline; the span exists
                # so per-buffer sizes show up in the trace
                o.tracer.event(f"alloc:{decl.name}", "alloc", 0.0,
                               device=self.device.name, bytes=nbytes,
                               elems=count)
        if o is not None:
            o.metrics.gauge(
                "repro_gpu_mem_in_use_bytes",
                "Device memory held by the last allocated plan",
                ("device",)).set(used, device=self.device.name)
        return buffers

    def _copy_in(self, op: CopyIn, inputs: dict,
                 buffers: dict[str, np.ndarray],
                 decls: dict[str, BufferDecl], sizes: dict[str, int],
                 events: list[ProfilingEvent],
                 step: int | None = None) -> None:
        """``clEnqueueWriteBuffer`` with strict size validation.

        Earlier revisions copied ``min(src.size, buf.size)`` elements and
        silently dropped the rest; any mismatch beyond the guard-plane
        shortfall is now a typed error naming the host param and the
        buffer's symbolic count.  A buffer that *is* the host array
        (bound in place) has nothing to copy, but its upload is modelled
        and fails as any other: the fault plan is consulted at the same
        sites, and a corrupted payload raises without writing the host
        array (the modelled DMA payload is what is corrupted).
        """
        buf = buffers[op.buffer]
        if buf is inputs[op.host_name]:
            # bound in place by _allocate_buffers: nothing to copy, but
            # the upload a real device would need is still modelled, at
            # the declared width
            self._transfer_faults(op, step)
            if self.faults is not None and self.faults.should_inject(
                    "transfer_corrupt", f"h2d:{op.host_name}", step):
                raise ClTransferCorrupted(
                    f"integrity check failed for transfer of host param "
                    f"{op.host_name!r} -> {op.buffer!r}; the host array "
                    f"is untouched", host_param=op.host_name,
                    buffer=op.buffer, injected=True)
            nbytes = buf.size * decls[op.buffer].scalar.nbytes
            self._record(events, "h2d", op.host_name,
                         transfer_time_ms(nbytes, self.device),
                         bytes=nbytes, buffer=op.buffer)
            return
        src = np.asarray(inputs[op.host_name])
        flat = src.reshape(-1)
        guard = self._guard_elems(sizes)
        if flat.size > buf.size or buf.size - flat.size > guard:
            decl = decls[op.buffer]
            raise ClInvalidBufferSize(
                f"transfer size mismatch: host param {op.host_name!r} has "
                f"{flat.size} elements but device buffer {op.buffer!r} "
                f"holds {buf.size} (symbolic count {decl.count!r} under "
                f"sizes {sizes}); only a shortfall of up to the guard "
                f"plane ({guard} elements) is tolerated",
                host_param=op.host_name, buffer=op.buffer,
                host_elems=int(flat.size), buffer_elems=int(buf.size),
                guard_elems=guard)
        self._transfer_faults(op, step)
        buf[:flat.size] = flat
        if flat.size < buf.size:
            buf[flat.size:] = 0
        if self.faults is not None and self.faults.should_inject(
                "transfer_corrupt", f"h2d:{op.host_name}", step):
            self.faults.corrupt(buf[:flat.size])
            # modelled host-side CRC over the DMA payload: detect, roll the
            # buffer back, and surface a typed error — corrupted data never
            # reaches a kernel silently
            if not np.array_equal(buf[:flat.size], flat):
                buf[:] = 0
                raise ClTransferCorrupted(
                    f"integrity check failed for transfer of host param "
                    f"{op.host_name!r} -> {op.buffer!r}; buffer rolled back",
                    host_param=op.host_name, buffer=op.buffer, injected=True)
        self._record(events, "h2d", op.host_name,
                     transfer_time_ms(buf.nbytes, self.device),
                     bytes=buf.nbytes, buffer=op.buffer)

    def _transfer_faults(self, op: CopyIn, step: int | None) -> None:
        """Raise the transfer abort the fault plan injects at an
        upload's site, before any data moves."""
        if self.faults is not None and self.faults.should_inject(
                "transfer_fail", f"h2d:{op.host_name}", step):
            raise ClOutOfResources(
                f"clEnqueueWriteBuffer aborted for host param "
                f"{op.host_name!r} -> {op.buffer!r}",
                host_param=op.host_name, buffer=op.buffer, injected=True)

    # -- execution --------------------------------------------------------------------
    def execute(self, program: HostProgram,
                inputs: dict[str, np.ndarray | float | int],
                sizes: dict[str, int],
                fault_step: int | None = None) -> RunResult:
        """Run a compiled host program on this virtual device.

        ``inputs`` maps host parameter names to NumPy arrays / scalars;
        ``sizes`` binds the symbolic size variables (N, K, M, ...).
        ``fault_step`` threads an external step index (e.g. the simulation
        time step) into the fault plan so step-targeted faults can hit
        per-step ``execute`` calls.

        A one-shot run is a :class:`ResidentPlan` on fresh buffers with
        nothing rotating: it uploads every input, runs each launch once
        and reads the result back.  ``buffers`` of the returned
        :class:`RunResult` holds the device buffers by name.
        """
        with self._plan_run("gpu.execute") as events:
            state = ResidentPlan(self, program.plan, inputs, sizes, None,
                                 events, setup_step=fault_step)
            state.launch_all(fault_step)
            res = state.finish()
        return RunResult(result=res.result, buffers=state.buffers,
                         events=events)

    def execute_many(self, program: HostProgram,
                     inputs: dict[str, np.ndarray | float | int],
                     sizes: dict[str, int], steps: int,
                     rotations: list[tuple[str, ...]] | None = None
                     ) -> RunResult:
        """Run the host program iteratively with resident device buffers.

        This is how the paper's application actually runs ("the two
        kernels are executed iteratively"): inputs are uploaded once, then
        every step is one call of the plan's compiled step over two time
        levels (:meth:`ResidentPlan.stepping`, as a ``resident``
        simulation and every shard step) and a rotation of buffer roles.
        ``rotations`` lists cycles of host-parameter names; after each
        step the buffer bound to each name is replaced by the buffer of
        the next name in the cycle.  It must hold the leapfrog cycle
        ``("prev2_h", "prev1_h", "__out__")`` (``"__out__"`` marks the
        level the step writes over the oldest one) and may hold the
        FD-MM swap ``("v2_h", "v1_h")``.  Without that cycle the call
        raises :class:`ClInvalidValue`, and for a plan the step refuses
        :class:`~repro.lift.codegen.loops.LoopsUnsupported`.  Host
        transfers happen once at the start/end, so the profiled kernel
        time reflects steady-state operation.

        Step-targeted faults from the plan hit the launches of that step
        index, before the step stores anything; allocation and transfer
        faults hit the plan's open, before step 0 and stamped with it.
        """
        with self._plan_run("gpu.execute_many", steps=steps) as events:
            state = ResidentPlan.stepping(self, program.plan, inputs, sizes,
                                          rotations, events, setup_step=0)
            for step in range(steps):
                state.run_fused(step)
                state.rotate()
            return state.finish()

    def stepping(self, plan: HostPlan, inputs: dict, sizes: dict[str, int],
                 rotations: list[tuple[str, ...]],
                 events: list[ProfilingEvent],
                 in_place: dict[str, np.ndarray] | None = None, *,
                 setup_step: int | None = None) -> "ResidentPlan":
        """``plan`` opened on this device to step
        (:meth:`ResidentPlan.stepping`); a
        :class:`~.resilient.ResilientGPU` opens the same plan under its
        recovery ladder, so a caller steps either executor alike."""
        return ResidentPlan.stepping(self, plan, inputs, sizes, rotations,
                                     events, in_place, setup_step=setup_step)

    @contextmanager
    def _plan_run(self, span_name: str, **span_attrs):
        """The frame of one :meth:`execute` / :meth:`execute_many` call:
        a ``gpu.*`` span (under an observability session) around a
        fresh event list, which a :class:`ClError` leaving the run
        carries as ``err.events`` — the partial timeline recovery
        policies preserve as ``failed_*`` events."""
        events: list[ProfilingEvent] = []
        o = _obs.get()
        cm = (o.tracer.span(span_name, "gpu", device=self.device.name,
                            **span_attrs)
              if o is not None else nullcontext())
        with cm:
            try:
                yield events
            except ClError as err:
                err.events = events
                raise

    def _launch_attrs(self, timing: KernelTiming, n_items: int,
                      precision: str) -> dict:
        """Achieved-vs-roofline figures for the trace span / report."""
        secs = timing.time_ms * 1e-3
        total_bytes = timing.bytes_per_item * n_items
        total_flops = timing.flops_per_item * n_items
        return dict(
            precision=precision, n_items=n_items,
            occupancy=timing.occupancy, workgroup=timing.workgroup,
            bytes=total_bytes, flops=total_flops,
            achieved_gbs=total_bytes / secs / 1e9 if secs > 0 else 0.0,
            roofline_gbs=self.device.effective_bandwidth / 1e9,
            achieved_gflops=total_flops / secs / 1e9 if secs > 0 else 0.0,
            peak_gflops=self.device.flops_rate(precision) / 1e9)

    def _prepare_launch(self, op: Launch, buffers: dict[str, np.ndarray],
                        inputs: dict, sizes: dict[str, int],
                        rotating: dict[str, str]) -> "_PreparedLaunch":
        """Hoist every per-step-invariant part of a launch out of the
        resident-plan step loop: the executable kernel, scalar
        argument values, resolved ``size_kwargs``, resource analysis,
        precision, ``global_size`` evaluation and the autotuned
        :class:`KernelTiming`.  ``rotating`` maps the buffers whose role
        rotates to their rotation names, which the compiled step rebinds
        per step.  The launch takes the arena :meth:`_workspace_for`
        keeps for its kernel, shapes and sizes.
        """
        nk = self._np_kernel(op)
        args: list = []
        names: list[str] = []
        rotates: list[tuple[str, str]] = []
        size_kwargs: dict[str, int] = {}
        out: np.ndarray | None = None
        gather: np.ndarray | None = None
        for binding in op.args:
            if binding.kind == "buffer":
                buf = buffers[binding.source]
                if binding.param_name == "out":
                    out = buf
                else:
                    if binding.source in rotating:
                        rotates.append((binding.param_name,
                                        rotating[binding.source]))
                    args.append(buf)
                    names.append(binding.param_name)
                if binding.param_name == GATHER_INDEX_PARAM:
                    gather = buf
            elif binding.kind == "scalar":
                args.append(inputs[binding.source])
                names.append(binding.param_name)
            elif binding.kind == "size":
                name = binding.param_name
                size_kwargs[name] = int(sizes[name])
            else:
                raise ClInvalidKernelArgs(
                    f"launch of kernel {op.kernel.name!r}: argument "
                    f"{binding.param_name!r} has unknown binding kind "
                    f"{binding.kind!r} (expected 'buffer', 'scalar' or "
                    f"'size'); HostPlans built by compile_host() only emit "
                    f"those three — was this plan edited by hand?",
                    kernel=op.kernel.name, param=binding.param_name,
                    kind=binding.kind)
        for s in nk.size_params:
            if s not in size_kwargs:
                size_kwargs[s] = int(sizes[s])
        if nk.returns_out and out is None:
            raise ClInvalidKernelArgs(
                f"kernel {op.kernel.name!r} allocates a fresh output "
                f"but its launch has no 'out' buffer binding; "
                f"compile_host() normally adds one — check the plan's "
                f"Launch.args", kernel=op.kernel.name)

        n_items = (int(op.global_size.evaluate(sizes))
                   if op.global_size is not None else 0)
        res = self._kernel_resources(op)
        precision = self._launch_precision(op)
        return _PreparedLaunch(
            op=op, ex=self._exec_kernel(op),
            ws=self._workspace_for(nk, args, out, size_kwargs),
            site=f"launch:{op.kernel.name}",
            args=args, names=names, rotates=rotates,
            out=out if nk.returns_out else None, gather=gather,
            size_kwargs=size_kwargs, n_items=n_items, res=res,
            precision=precision,
            timing=self._launch_timing(res, n_items, precision, gather))

    def _launch_timing(self, res: Resources, n_items: int, precision: str,
                       gather_index: np.ndarray | None) -> KernelTiming:
        if self.autotune:
            return autotune_workgroup(res, n_items, self.device, precision,
                                      self.traits, gather_index)
        from .costmodel import kernel_time
        return kernel_time(res, n_items, self.device, precision,
                           self.traits, gather_index,
                           workgroup=self.workgroup)

    def _launch_faults(self, prep: "_PreparedLaunch",
                       step: int | None) -> None:
        """Raise the device loss or launch abort the fault plan injects
        at a launch's site, before the launch stores anything."""
        if self.faults is None:
            return
        name = prep.op.kernel.name
        at = f" at step {step}" if step is not None else ""
        if self.faults.should_inject("device_lost", prep.site, step):
            raise ClDeviceLost(
                f"device {self.device.name} lost while enqueueing kernel "
                f"{name!r}{at}", kernel=name, step=step, injected=True)
        if self.faults.should_inject("launch_abort", prep.site, step):
            raise ClOutOfResources(
                f"clEnqueueNDRangeKernel aborted for kernel {name!r}{at}",
                kernel=name, step=step, injected=True)

    def _run_prepared(self, prep: "_PreparedLaunch",
                      events: list[ProfilingEvent],
                      step: int | None = None) -> None:
        """Execute one prepared launch on the buffers it was prepared
        with, its executable called by parameter name; its ``kernel``
        event names the executable's ``tier`` and ``cc_rung``."""
        self._launch_faults(prep, step)
        ex = prep.ex
        args = dict(zip(prep.names, prep.args), **prep.size_kwargs)
        if prep.out is not None:
            args["out"] = prep.out
        t0 = _time.perf_counter()
        if isinstance(ex, StepKernel):
            ex.fn(**args)
        else:
            ex.fn(**args, _ws=prep.ws)
        host_secs = _time.perf_counter() - t0
        o = _obs.get()
        if o is not None:
            self._observe_host_time(o, prep.op.kernel.name, host_secs)
        self._record_launch(prep, events, step, tier=ex.tier,
                            cc_rung=ex.cc_rung)

    def _record_launch(self, prep: "_PreparedLaunch",
                       events: list[ProfilingEvent],
                       step: int | None = None,
                       rng: tuple[int, int] | None = None, **span_attrs
                       ) -> None:
        """Record one launch's modelled ``kernel`` event: its plan-time
        timing, or the timing of its work-item range ``rng``; under an
        observability session its span also carries ``span_attrs``."""
        timing = prep.timing if rng is None else prep.range_timing.get(rng)
        if timing is None:
            timing = prep.range_timing[rng] = self._launch_timing(
                prep.res, max(0, rng[1] - rng[0]), prep.precision,
                prep.gather)
        attrs: dict = {}
        if _obs.get() is not None:
            attrs = {**self._launch_attrs(timing, prep.n_items,
                                          prep.precision), **span_attrs}
            if step is not None:
                attrs["step"] = step
        self._record(events, "kernel", prep.op.kernel.name, timing.time_ms,
                     timing, **attrs)

    @staticmethod
    def _launch_precision(op: Launch) -> str:
        widths = [p.scalar.nbytes for p in op.kernel.params
                  if p.scalar.name in ("float", "double")]
        return "double" if widths and max(widths) == 8 else "single"


@dataclass
class _PreparedLaunch:
    """One launch of a resident plan with every step-invariant part
    pre-resolved (see :meth:`VirtualGPU._prepare_launch`)."""

    op: Launch
    ex: object                         # VirtualGPU._exec_kernel's executable
    ws: Workspace                      # arena (VirtualGPU._workspace_for)
    site: str                          # fault-injection site string
    args: list                         # positional args
    names: list[str]                   # the parameter each of args binds
    rotates: list[tuple[str, str]]     # (parameter, rotation name)
    out: np.ndarray | None             # the 'out' binding's array
    gather: np.ndarray | None          # the gather index, priced per range
    size_kwargs: dict[str, int]
    n_items: int
    res: Resources
    precision: str
    timing: KernelTiming               # of the whole launch
    range_timing: dict = field(default_factory=dict)  # (lo, hi) -> timing


def leapfrog_cycle(rotations) -> tuple[str, ...]:
    """The cycle of time levels among ``rotations``: ``"__out__"`` last."""
    for cycle in rotations or ():
        if cycle[-1:] == ("__out__",):
            return tuple(cycle)
    raise ClInvalidValue(f"two-level stepping needs the leapfrog cycle "
                         f"('__out__' last) among rotations {rotations!r}")


class ResidentPlan:
    """Execution state of one plan on one device: the one interpreter
    that turns a :class:`~repro.lift.codegen.host.HostPlan` into
    allocations, transfers and launches.

    Opening a plan validates it with its inputs and sizes, allocates every
    buffer and uploads every ``CopyIn`` — all before the first launch,
    Listing 5's order.  A plan with nothing rotating runs its launches
    one by one, once (:meth:`launch_all`: :meth:`VirtualGPU.execute`).
    A plan that rotates is opened by :meth:`stepping` and steps over two
    time levels: for each step :meth:`run_fused` (one compiled step),
    then :meth:`rotate` and optionally patch resident buffers (a pool's
    halo exchange) — :meth:`VirtualGPU.execute_many`, a ``resident``
    simulation and every shard alike.  :meth:`finish` reads the newest
    level back (one ``d2h`` event named ``result``).

    ``binding`` maps rotation names (the transferred host parameters) to
    the buffer currently playing that role; :meth:`buffer_for` resolves
    a name to its array under the current rotation.  In ``rotations``,
    ``"__out__"`` only closes the leapfrog cycle: the step overwrites the
    cycle's oldest level in place, so the launches' output buffer never
    takes a role.  It is declared without host memory (see
    :meth:`VirtualGPU._allocate_buffers`), as large as its cycle peers,
    so the modelled device still holds three levels.

    ``in_place`` maps rotation names to host arrays that become the
    resident buffers themselves instead of being copied into fresh ones
    (``CL_MEM_USE_HOST_PTR``; requirements in
    :meth:`VirtualGPU._use_host_ptr`): launches then read and write the
    caller's memory, which is how :class:`repro.acoustics.RoomSimulation`
    steps without any per-step transfer.  A step stores nothing before
    the fault plan has been consulted at every launch site, so a failed
    step leaves those arrays at the step before and re-running it is
    idempotent: the retry ladder of :class:`~.resilient.ResilientGPU`
    re-runs it, or re-opens a plan over the same arrays.

    ``setup_step`` is the step index the setup allocations and transfers
    are stamped with for step-targeted faults: the step the plan opens
    at (``None``: no step, as for an ``execute()`` without
    ``fault_step``).
    """

    #: the compiled step :meth:`run_fused` calls (:meth:`stepping`)
    kernel: StepKernel | None = None

    def __init__(self, gpu: VirtualGPU, plan: HostPlan, inputs: dict,
                 sizes: dict[str, int],
                 rotations: list[tuple[str, ...]] | None,
                 events: list[ProfilingEvent],
                 in_place: dict[str, np.ndarray] | None = None, *,
                 setup_step: int | None = None):
        self._validate(plan, inputs, sizes)
        self.gpu = gpu
        self.plan = plan
        leapfrog = leapfrog_cycle(rotations) if rotations else ()
        self.rotations = [tuple(n for n in c if n != "__out__")
                          for c in rotations or []]
        self.events = events

        host_to_buffer = plan.host_buffers()
        launches = [op for op in plan.ops if isinstance(op, Launch)]
        out_buffer = next((op.out_buffer for op in reversed(launches)
                           if op.out_buffer is not None), None)

        # name -> current buffer array (rotation permutes this binding)
        binding: dict[str, str] = dict(host_to_buffer)
        rotatable = sorted(binding)
        for cycle in self.rotations:
            for n in cycle:
                if n not in binding:
                    raise ClInvalidValue(
                        f"rotation name {n!r} (in cycle {tuple(cycle)!r}) "
                        f"is not a transferred host parameter; rotatable "
                        f"names: {rotatable}",
                        rotation=tuple(cycle), available=rotatable)
        in_place = in_place or {}
        unknown = sorted(set(in_place) - set(binding))
        if unknown:
            raise ClInvalidValue(
                f"in_place name(s) {unknown} are not transferred host "
                f"parameters; bindable names: {rotatable}",
                in_place=unknown, available=rotatable)

        decls = {d.name: d for d in plan.buffers}
        bound = {binding[n]: a for n, a in in_place.items()}
        at_least = None
        if leapfrog:
            # the output level has no host memory, and is as large as its
            # cycle peers (state buffers carry the guard plane; see
            # lift_programs)
            bound[out_buffer] = None
            at_least = {out_buffer: max(
                (int(decls[binding[n]].count.evaluate(sizes))
                for n in leapfrog[:-1]), default=0)}
        buffers = gpu._allocate_buffers(plan, sizes, bound, at_least,
                                        setup_step)
        for cycle in self.rotations:
            # cycle peers trade roles, a written one included: an array
            # bound narrower than its peers cannot take their place
            dtypes = {n: str(buffers[binding[n]].dtype) for n in cycle}
            if len(set(dtypes.values())) > 1:
                raise ClInvalidBufferSize(
                    f"rotation cycle {tuple(cycle)!r} mixes element types "
                    f"{dtypes}; buffers that rotate must be interchangeable",
                    rotation=tuple(cycle), dtypes=dtypes)
        for op in plan.ops:
            if isinstance(op, CopyIn):
                gpu._copy_in(op, inputs, buffers, decls, sizes, events,
                             setup_step)

        self.buffers = buffers
        self.binding = binding
        # the name the newest level rotates into: the one before __out__
        self._newest = leapfrog[-2] if leapfrog else None

        # buffers whose bound array changes between steps, by rotation
        # name; every other binding is resolved once, here
        rotating = {host_to_buffer[n]: n for c in self.rotations for n in c}
        self._prepared = [
            gpu._prepare_launch(op, buffers, inputs, sizes, rotating)
            for op in launches]
        # the keyword arguments of a fused step (run_fused): the prepared
        # launches' bindings by parameter name, rotating ones per step
        self._fused_args: dict = {}
        self._fused_rotating: list[tuple[str, str]] = []
        for prep in self._prepared:
            self._fused_args.update(prep.size_kwargs)
            self._fused_args.update(zip(prep.names, prep.args))
            self._fused_rotating += prep.rotates

    @classmethod
    def stepping(cls, gpu: VirtualGPU, plan: HostPlan, inputs: dict,
                 sizes: dict[str, int], rotations: list[tuple[str, ...]],
                 events: list[ProfilingEvent],
                 in_place: dict[str, np.ndarray] | None = None, *,
                 setup_step: int | None = None) -> "ResidentPlan":
        """Open ``plan`` to step through :meth:`run_fused`, one compiled
        step over two levels of the leapfrog cycle in ``rotations``
        (:meth:`VirtualGPU.compile_step`) — how every loop steps.
        Without that cycle (:class:`ClInvalidValue`), or for a plan the
        step refuses (:class:`~repro.lift.codegen.loops.LoopsUnsupported`),
        it raises before anything is allocated."""
        kernel = gpu.compile_step(plan, leapfrog_cycle(rotations))
        st = cls(gpu, plan, inputs, sizes, rotations, events, in_place,
                 setup_step=setup_step)
        st.kernel = kernel
        return st

    @staticmethod
    def _validate(plan: HostPlan, inputs: dict, sizes: dict[str, int]) -> None:
        """Check the plan's ops, host inputs and symbolic sizes before
        touching the device; every missing binding is reported with the
        buffer/launch that needs it."""
        for op in plan.ops:
            if not isinstance(op, (CopyIn, Launch, CopyOut)):
                raise ClInvalidValue(
                    f"unknown plan op {op!r}; the virtual runtime "
                    f"executes CopyIn/Launch/CopyOut plans from "
                    f"compile_host()", op=repr(op))
        missing_sizes = plan.missing_sizes(sizes)
        if missing_sizes:
            detail = "; ".join(
                f"size {var!r} needed by {', '.join(consumers)}"
                for var, consumers in sorted(missing_sizes.items()))
            raise ClInvalidValue(
                f"missing symbolic size(s) {sorted(missing_sizes)} in "
                f"`sizes` (got {sorted(sizes)}): {detail}",
                missing=sorted(missing_sizes))
        missing_inputs = plan.missing_inputs(inputs)
        if missing_inputs:
            detail = "; ".join(
                f"host param {name!r} needed by {', '.join(consumers)}"
                for name, consumers in sorted(missing_inputs.items()))
            raise ClInvalidKernelArgs(
                f"missing host input(s) {sorted(missing_inputs)}: {detail}",
                missing=sorted(missing_inputs))

    def buffer_for(self, name: str) -> np.ndarray:
        """The array currently bound to rotation name ``name``."""
        return self.buffers[self.binding[name]]

    def halo_footprint(self) -> tuple[int, int]:
        """How many elements below / above its own the compiled step's
        sweep reads, under the plan's bindings
        (:meth:`~repro.lift.codegen.arena.ArenaProgram.halo_footprint`)."""
        env = {n: v for n, v in self._fused_args.items()
               if not isinstance(v, np.ndarray)}
        return self.kernel.programs[0].halo_footprint(env)

    def run_fused(self, step: int, blocks: tuple[int, int] | None = None,
                  **span_attrs) -> None:
        """One step through the plan's compiled step (:meth:`stepping`),
        under a ``gpu.step`` span naming its ``tier`` and ``cc_rung``.
        The launches record their plan-time ``kernel`` events, after the
        fault plan is consulted at their sites and before the step
        stores anything; the host wall time is observed once.

        ``blocks=(b0, b1)`` runs only those Z-plane blocks (of ``NxNy``
        points, each with its boundary points): the sweep launch is
        recorded over their work-items, the later launches whole with
        the range that ends the step — the overlap schedule's split."""
        kernel = self.kernel
        args = self._fused_args
        for name, role in self._fused_rotating:
            args[name] = self.buffer_for(role)
        record, rng = self._prepared, None
        if blocks is not None:
            b0, b1 = blocks
            n, blk = record[0].n_items, int(args["NxNy"])
            if (b0, b1) != (0, -(-n // blk)):
                rng = (b0 * blk, min(b1 * blk, n))
                record = record if b1 * blk >= n else record[:1]
            args = {**args, "_blocks": (b0, b1)}
        for prep in record:
            self.gpu._launch_faults(prep, step)
        # looked up per step: a plan may outlive the obs session it was
        # opened under (or be opened before one starts)
        o = _obs.get()
        cm = (o.tracer.span("gpu.step", "step", step=step,
                            device=self.gpu.device.name, tier=kernel.tier,
                            cc_rung=kernel.cc_rung, **span_attrs)
              if o is not None else nullcontext())
        with cm:
            t0 = _time.perf_counter()
            kernel.fn(**args)
            host_secs = _time.perf_counter() - t0
            if o is not None:
                self.gpu._observe_host_time(o, kernel.name, host_secs)
            for k, prep in enumerate(record):
                self.gpu._record_launch(prep, self.events, step,
                                        None if k else rng)

    def launch_all(self, step: int | None) -> None:
        """Run every launch of a plan with nothing rotating once, one by
        one, with no span of its own (a one-shot
        :meth:`VirtualGPU.execute` is not a loop step)."""
        for prep in self._prepared:
            self.gpu._run_prepared(prep, self.events, step)

    def rotate(self) -> None:
        """Advance the buffer roles by one step.

        Each name takes over the buffer of the NEXT name in its cycle:
        the leapfrog cycle ``("prev2_h", "prev1_h")`` (its ``"__out__"``
        dropped) realises prev2 <- prev1 <- (old prev2), the level the
        step just overwrote.
        """
        for cycle in self.rotations:
            olds = [self.binding[n] for n in cycle]
            for i, n in enumerate(cycle):
                self.binding[n] = olds[(i + 1) % len(cycle)]

    def finish(self) -> RunResult:
        """Read the newest level back and expose the rotated bindings."""
        name = (self.binding[self._newest] if self._newest
                else self.plan.result_buffer)
        final = self.buffers[name] if name else None
        if final is not None:
            self.gpu._record(self.events, "d2h", "result",
                             transfer_time_ms(final.nbytes, self.gpu.device),
                             bytes=final.nbytes)
        # expose buffers under their rotated bindings for inspection
        exposed = {f"final:{h}": self.buffers[b]
                   for h, b in self.binding.items()}
        exposed.update(self.buffers)
        return RunResult(result=final, buffers=exposed, events=self.events)
