"""Virtual OpenCL runtime: executes LIFT host plans on a modelled GPU.

Executes a :class:`~repro.lift.codegen.host.HostPlan` produced by the LIFT
host-code generator:

* device buffers are NumPy arrays; ``CopyIn``/``CopyOut`` model PCIe
  transfers;
* each ``Launch`` runs the *NumPy realisation of the same kernel Lambda*
  (bit-correct results) and records a :class:`ProfilingEvent` whose
  duration comes from the cost model + workgroup autotuning — the virtual
  analogue of the paper's "medians of 2000 executions ... using the OpenCL
  profiling API.  Only running times of each kernel are reported";
* dependent kernels are implicitly synchronised (the plan is sequential,
  like the generated ``clFinish`` calls).

One interpreter does this: :class:`ResidentPlan` validates the plan,
allocates, uploads every input before the first launch (Listing 5's
order), runs the launches once per step and reads the result back.
:meth:`VirtualGPU.execute_many` drives it for many steps with buffer
roles rotating; :meth:`VirtualGPU.execute` is one step with nothing
rotating; the multi-device executors drive one per shard.

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
from ..lift.codegen.loops import realise
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
    executable that runs it — the fused loop, or the NumPy kernel when
    the loop emitter declines — under ``#loops``);
    ``arena`` reports the workspace arena's process-wide hit/miss
    counters and resident bytes
    (see :func:`repro.lift.codegen.arena.arena_stats`) — the temporaries
    of kernels running on the steady emitter; a compiled-loop kernel
    keeps nothing there; ``loops_disk``
    reports the on-disk compiled-artifact cache the cc tier shares
    across processes and, as ``cc_rung``, which rung of the compiler
    flag ladder built them (see
    :func:`repro.lift.codegen.loops.loops_disk_cache_stats`).
    """
    from ..lift.codegen.loops import loops_disk_cache_stats
    return {"np_kernels": len(_NP_KERNEL_CACHE),
            "resources": len(_RESOURCES_CACHE),
            "arena": arena_stats(),
            "loops_disk": loops_disk_cache_stats()}


def clear_kernel_caches() -> None:
    """Drop the shared NumPy-kernel and resource-analysis caches
    (test isolation; live VirtualGPU instances keep their local maps)."""
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
        self._np_kernels: dict[str, NumpyKernel] = {}
        self._resources: dict[str, Resources] = {}
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
    def _np_kernel(self, launch: Launch) -> NumpyKernel:
        """Instance map (name -> kernel) over the shared source-hash cache.

        The per-instance map keeps the one-program-per-device fast path
        (and lets :class:`~.resilient.ResilientGPU` alias it into its
        degraded executor); on a miss the process-wide
        :data:`_NP_KERNEL_CACHE` is consulted by source hash, so a pool
        of devices running the same program compiles each kernel once.
        The entry is cached under a ``#steady`` suffix of the source
        hash: the runtime executes it directly, or hands its
        :class:`ArenaProgram` to the compiled-loop emitter.
        """
        ks = launch.kernel
        nk = self._np_kernels.get(ks.name)
        if nk is None:
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
                nk = compile_numpy(ks.kernel_lambda, ks.name, lower=False)
                _NP_KERNEL_CACHE[key] = nk
            self._np_kernels[ks.name] = nk
        return nk

    def _exec_kernel(self, launch: Launch):
        """The executable realising a launch on the hot path: what
        :func:`~repro.lift.codegen.loops.realise` makes of the NumPy
        kernel — the fused loop, or the kernel itself when the loop
        emitter declines — remembered process-wide under a ``#loops``
        suffix of the same source hash."""
        nk = self._np_kernel(launch)
        key = _kernel_source_key(launch.kernel) + "#loops"
        ex = _NP_KERNEL_CACHE.get(key)
        if ex is None:
            ex = _NP_KERNEL_CACHE[key] = realise(nk)
        return ex

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
        seconds the NumPy realisation took, distinct from the modelled
        kernel clock)."""
        o.metrics.histogram(
            "repro_host_wallclock_seconds",
            "Real host seconds spent executing the NumPy realisation "
            "of a kernel launch",
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
        ks = launch.kernel
        res = self._resources.get(ks.name)
        if res is None:
            key = _kernel_source_key(ks)
            res = _RESOURCES_CACHE.get(key)
            if res is None:
                res = analyse_kernel(ks.kernel_lambda)
                _RESOURCES_CACHE[key] = res
            self._resources[ks.name] = res
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
                          at_least: dict[str, int] | None = None
                          ) -> dict[str, np.ndarray]:
        """``clCreateBuffer`` for every declared buffer, with device-memory
        capacity enforcement when the DeviceSpec declares a capacity.

        ``bound`` maps buffer names to host arrays that become the
        buffer itself instead of a fresh allocation (see
        :meth:`_use_host_ptr`).  The device holds the *declared* type:
        a bound array counts ``count × declared itemsize`` against the
        device capacity like any other buffer, also when the host keeps
        it in a narrower integer.  ``at_least`` maps buffer names to a
        minimum element count above the declared one (a rotating output
        buffer is as large as its cycle peers)."""
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
                    "alloc", f"alloc:{decl.name}"):
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
            if host is not None and self._use_host_ptr(
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
        (bound in place) has nothing to transfer; only the modelled
        event is recorded.
        """
        buf = buffers[op.buffer]
        if buf is inputs[op.host_name]:
            # bound in place by _allocate_buffers: nothing to copy, but
            # the upload a real device would need is still modelled, at
            # the declared width
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
        if self.faults is not None and self.faults.should_inject(
                "transfer_fail", f"h2d:{op.host_name}", step):
            raise ClOutOfResources(
                f"clEnqueueWriteBuffer aborted for host param "
                f"{op.host_name!r} -> {op.buffer!r}",
                host_param=op.host_name, buffer=op.buffer, injected=True)
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

        A one-shot run is the resident loop of :meth:`execute_many` with
        one iteration: a :class:`ResidentPlan` on fresh buffers with
        nothing rotating uploads every input, runs each launch once and
        reads the result back.  ``buffers`` of the returned
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
        kernels are executed iteratively"): inputs are uploaded once, the
        kernel launches repeat every step, and buffer roles rotate between
        steps.  ``rotations`` lists cycles of host-parameter names (the
        sentinel ``"__out__"`` names the freshly-allocated output buffer):
        after each step the buffer bound to each name is replaced by the
        buffer of the next name in the cycle — e.g. the leapfrog rotation
        ``("prev2_h", "prev1_h", "__out__")`` and the FD-MM swap
        ``("v2_h", "v1_h")``.  Only kernel launches run per step; host
        transfers happen once at the start/end, so the profiled kernel
        time reflects steady-state operation.

        Step-targeted faults from the plan hit the launches of that step
        index; transfer/allocation faults hit the one-off setup phase.
        """
        with self._plan_run("gpu.execute_many", steps=steps) as events:
            state = ResidentPlan(self, program.plan, inputs, sizes,
                                 rotations, events)
            for step in range(steps):
                state.run_step(step)
                state.rotate()
            return state.finish()

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
                        rotating_sources: set[str]) -> "_PreparedLaunch":
        """Hoist every per-step-invariant part of a launch out of the
        resident-plan step loop: the executable kernel, scalar
        argument values, resolved ``size_kwargs``, resource analysis,
        precision, ``global_size`` evaluation and — when the gather
        buffer does not rotate — the autotuned :class:`KernelTiming`.
        What remains per step is patching the rotating buffer positions
        and the kernel call itself.  The launch takes the arena
        :meth:`_workspace_for` keeps for its kernel, shapes and sizes.
        """
        nk = self._exec_kernel(op)
        args: list = []
        rotating: list[tuple[int, str]] = []
        size_kwargs: dict[str, int] = {}
        out_src: str | None = None
        out_static: np.ndarray | None = None
        gather_src: str | None = None
        gather_static: np.ndarray | None = None
        for binding in op.args:
            if binding.kind == "buffer":
                buf = buffers[binding.source]
                if binding.param_name == "out":
                    out_src = binding.source
                    out_static = buf
                else:
                    if binding.source in rotating_sources:
                        rotating.append((len(args), binding.source))
                    args.append(buf)
                if binding.param_name == GATHER_INDEX_PARAM:
                    gather_src = binding.source
                    gather_static = buf
            elif binding.kind == "scalar":
                args.append(inputs[binding.source])
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
        if nk.returns_out and out_src is None:
            raise ClInvalidKernelArgs(
                f"kernel {op.kernel.name!r} allocates a fresh output "
                f"but its launch has no 'out' buffer binding; "
                f"compile_host() normally adds one — check the plan's "
                f"Launch.args", kernel=op.kernel.name)

        n_items = (int(op.global_size.evaluate(sizes))
                   if op.global_size is not None else 0)
        res = self._kernel_resources(op)
        precision = self._launch_precision(op)
        timing: KernelTiming | None = None
        if gather_src is None or gather_src not in rotating_sources:
            timing = self._launch_timing(res, n_items, precision,
                                         gather_static)
        from ..lift.codegen.loops import LoopKernel
        return _PreparedLaunch(
            op=op, nk=nk,
            ws=self._workspace_for(nk, args, out_static, size_kwargs),
            site=f"launch:{op.kernel.name}",
            args=args, rotating=rotating,
            out_src=out_src, out_static=out_static,
            out_rotates=(out_src is not None
                         and out_src in rotating_sources),
            gather_src=gather_src, gather_static=gather_static,
            size_kwargs=size_kwargs, n_items=n_items, res=res,
            precision=precision, timing=timing,
            ranged=isinstance(nk, LoopKernel))

    def _launch_timing(self, res: Resources, n_items: int, precision: str,
                       gather_index: np.ndarray | None) -> KernelTiming:
        if self.autotune:
            return autotune_workgroup(res, n_items, self.device, precision,
                                      self.traits, gather_index)
        from .costmodel import kernel_time
        return kernel_time(res, n_items, self.device, precision,
                           self.traits, gather_index,
                           workgroup=self.workgroup)

    def _run_prepared(self, prep: "_PreparedLaunch",
                      view: dict[str, np.ndarray],
                      events: list[ProfilingEvent],
                      step: int | None = None,
                      rng: tuple[int, int] | None = None) -> None:
        """Execute one prepared launch under the current buffer rotation
        (``view`` maps rotating buffer names to their current arrays).

        ``rng=(lo, hi)`` restricts the launch to global work-items
        ``[lo, hi)`` — only compiled-loop kernels support it (see
        :attr:`_PreparedLaunch.ranged`); the overlap scheduler uses it
        to split a step kernel into an interior sweep and thin boundary
        sweeps around the halo planes."""
        op = prep.op
        if rng is not None and not prep.ranged:
            raise ClInvalidValue(
                f"kernel {op.kernel.name!r} does not support ranged "
                f"launches (not realised by the compiled-loop backend)",
                kernel=op.kernel.name)
        if self.faults is not None:
            if self.faults.should_inject("device_lost", prep.site, step):
                raise ClDeviceLost(
                    f"device {self.device.name} lost while enqueueing "
                    f"kernel {op.kernel.name!r}"
                    + (f" at step {step}" if step is not None else ""),
                    kernel=op.kernel.name, step=step, injected=True)
            if self.faults.should_inject("launch_abort", prep.site, step):
                raise ClOutOfResources(
                    f"clEnqueueNDRangeKernel aborted for kernel "
                    f"{op.kernel.name!r}"
                    + (f" at step {step}" if step is not None else ""),
                    kernel=op.kernel.name, step=step, injected=True)
        args = prep.args
        for pos, src in prep.rotating:
            args[pos] = view[src]
        out_array = (view[prep.out_src] if prep.out_rotates
                     else prep.out_static)
        nk = prep.nk
        extra = {} if rng is None else {"_range": (int(rng[0]), int(rng[1]))}
        t0 = _time.perf_counter()
        if nk.returns_out:
            nk.fn(*args, **prep.size_kwargs, out=out_array, _ws=prep.ws,
                  **extra)
        else:
            nk.fn(*args, **prep.size_kwargs, _ws=prep.ws, **extra)
        host_secs = _time.perf_counter() - t0
        if rng is not None:
            key = (int(rng[0]), int(rng[1]))
            timing = prep.range_timing.get(key)
            if timing is None:
                gather = (view[prep.gather_src]
                          if prep.gather_src in view else prep.gather_static)
                timing = self._launch_timing(prep.res,
                                             max(0, key[1] - key[0]),
                                             prep.precision, gather)
                prep.range_timing[key] = timing
        else:
            timing = prep.timing
            if timing is None:
                gather = (view[prep.gather_src]
                          if prep.gather_src in view else prep.gather_static)
                timing = self._launch_timing(prep.res, prep.n_items,
                                             prep.precision, gather)
        attrs: dict = {}
        o = _obs.get()
        if o is not None:
            attrs = self._launch_attrs(timing, prep.n_items, prep.precision)
            if step is not None:
                attrs["step"] = step
            self._observe_host_time(o, op.kernel.name, host_secs)
        self._record(events, "kernel", op.kernel.name, timing.time_ms,
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
    nk: NumpyKernel                    # steady (arena) variant
    ws: Workspace                      # arena (VirtualGPU._workspace_for)
    site: str                          # fault-injection site string
    args: list                         # positional args; rotating slots patched
    rotating: list[tuple[int, str]]    # (position in args, buffer name)
    out_src: str | None                # 'out' binding's buffer name
    out_static: np.ndarray | None      # its array when it does not rotate
    out_rotates: bool
    gather_src: str | None
    gather_static: np.ndarray | None
    size_kwargs: dict[str, int]
    n_items: int
    res: Resources
    precision: str
    timing: KernelTiming | None        # cached when gather never rotates
    ranged: bool = False               # fn accepts a _range=(lo, hi) kwarg
    range_timing: dict = field(default_factory=dict)  # (lo, hi) -> timing


class ResidentPlan:
    """Execution state of one plan on one device: the one interpreter
    that turns a :class:`~repro.lift.codegen.host.HostPlan` into
    allocations, transfers and launches.

    Opening a plan validates it with its inputs and sizes, allocates every
    buffer and uploads every ``CopyIn`` — all before the first launch,
    Listing 5's order.  A caller then drives the per-step lifecycle
    itself: for each step :meth:`run_step` (all launches), optionally
    patch resident buffers (halo exchange between devices), then
    :meth:`rotate`, and finally :meth:`finish`, which reads the result
    back (one ``d2h`` event named ``result``).  :meth:`VirtualGPU.execute`
    is one step with nothing rotating, :meth:`VirtualGPU.execute_many`
    the loop; :class:`repro.gpu.multi.MultiGPU` interleaves several of
    these, one per shard, inserting
    :class:`~repro.lift.codegen.host.HaloExchange` transfers between the
    launch and rotation phases of every step.

    ``binding`` maps rotation names (transferred host parameters plus the
    ``"__out__"`` sentinel) to the buffer currently playing that role;
    :meth:`buffer_for` resolves a name to its array under the current
    rotation.

    ``in_place`` maps rotation names to host arrays that become the
    resident buffers themselves instead of being copied into fresh ones
    (``CL_MEM_USE_HOST_PTR``; requirements in
    :meth:`VirtualGPU._use_host_ptr`): launches then read and write the
    caller's memory, which is how :class:`repro.acoustics.RoomSimulation`
    steps without any per-step transfer.  The plan mutates those arrays,
    so a caller that must be able to re-run from unchanged inputs (the
    retry ladder of :class:`~.resilient.ResilientGPU`) must not bind.

    ``setup_step`` is the step index the setup transfers are stamped
    with for step-targeted faults (``None``: a loop's one-off setup).
    ``min_out`` is a minimum element count for the output buffer (a
    shard's output spans its halo regions, which exchanges write).
    """

    def __init__(self, gpu: VirtualGPU, plan: HostPlan, inputs: dict,
                 sizes: dict[str, int],
                 rotations: list[tuple[str, ...]] | None,
                 events: list[ProfilingEvent],
                 in_place: dict[str, np.ndarray] | None = None, *,
                 setup_step: int | None = None, min_out: int = 0):
        self._validate(plan, inputs, sizes)
        self.gpu = gpu
        self.plan = plan
        self.inputs = inputs
        self.sizes = sizes
        self.rotations = list(rotations or [])
        self.events = events

        host_to_buffer = plan.host_buffers()
        launches = [op for op in plan.ops if isinstance(op, Launch)]
        out_buffer: str | None = None
        for op in launches:
            if op.out_buffer is not None:
                out_buffer = op.out_buffer

        # name -> current buffer array (rotation permutes this binding)
        binding: dict[str, str] = dict(host_to_buffer)
        if out_buffer is not None:
            binding["__out__"] = out_buffer
        rotatable = sorted(binding)
        for cycle in self.rotations:
            for n in cycle:
                if n not in binding:
                    raise ClInvalidValue(
                        f"rotation name {n!r} (in cycle {tuple(cycle)!r}) "
                        f"is not a transferred host parameter or the "
                        f"'__out__' sentinel; rotatable names: {rotatable}",
                        rotation=tuple(cycle), available=rotatable)
        in_place = in_place or {}
        unknown = sorted(set(in_place) - set(binding))
        if unknown:
            raise ClInvalidValue(
                f"in_place name(s) {unknown} are not transferred host "
                f"parameters or the '__out__' sentinel; bindable names: "
                f"{rotatable}", in_place=unknown, available=rotatable)

        decls = {d.name: d for d in plan.buffers}
        # a rotating output buffer must be as large as its cycle peers
        # (state buffers carry the guard plane; see lift_programs)
        peers = [binding[n] for cycle in self.rotations if "__out__" in cycle
                 for n in cycle if n != "__out__"]
        out_len = max([min_out] + [int(decls[b].count.evaluate(sizes))
                                   for b in peers])
        at_least = ({out_buffer: out_len}
                    if out_buffer is not None and out_len else None)
        buffers = gpu._allocate_buffers(
            plan, sizes, {binding[n]: a for n, a in in_place.items()},
            at_least)
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
        self._host_to_buffer = host_to_buffer
        self._launches = launches
        self._out_buffer = out_buffer

        # Buffer names whose bound array changes between steps; every
        # other binding is resolved once, here, instead of per step.
        rotating_sources: set[str] = set()
        for cycle in self.rotations:
            for n in cycle:
                if n == "__out__":
                    if out_buffer is not None:
                        rotating_sources.add(out_buffer)
                else:
                    rotating_sources.add(host_to_buffer[n])
        self._prepared = [
            gpu._prepare_launch(op, buffers, inputs, sizes, rotating_sources)
            for op in launches]

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

    def step_view(self) -> dict[str, np.ndarray]:
        """Launch-argument view under the current rotation: maps each
        original buffer name to the array presently bound to it."""
        view = {orig: self.buffers[self.binding[h]]
                for h, orig in self._host_to_buffer.items()}
        if self._out_buffer is not None:
            view[self._out_buffer] = self.buffers[self.binding["__out__"]]
        return view

    @property
    def num_launches(self) -> int:
        return len(self._prepared)

    def launch_ranged_capable(self, idx: int) -> bool:
        """Whether launch ``idx`` supports ``rng=(lo, hi)`` splitting
        (i.e. is realised by the compiled-loop backend)."""
        return self._prepared[idx].ranged

    def run_launch(self, idx: int, step: int,
                   view: dict[str, np.ndarray] | None = None,
                   rng: tuple[int, int] | None = None) -> None:
        """Run a single launch of the plan, optionally over a work-item
        sub-range — the overlap scheduler's building block (interior
        sweep concurrent with halo exchange, then the boundary sweeps)."""
        if view is None:
            view = self.step_view()
        self.gpu._run_prepared(self._prepared[idx], view, self.events,
                               step, rng=rng)

    def run_step(self, step: int, **span_attrs) -> None:
        """Run every launch of the plan once (one simulation step),
        under a ``gpu.step`` span."""
        # looked up per step: a plan may outlive the obs session it was
        # opened under (or be opened before one starts)
        o = _obs.get()
        step_span = (o.tracer.start("gpu.step", "step", step=step,
                                    device=self.gpu.device.name,
                                    **span_attrs)
                     if o is not None else None)
        try:
            self.launch_all(step)
        finally:
            if step_span is not None:
                o.tracer.end(step_span)

    def launch_all(self, step: int | None) -> None:
        """Run every launch of the plan once, with no span of its own
        (a one-shot :meth:`VirtualGPU.execute` is not a loop step)."""
        # rebind the launch arguments through the current rotation
        view = self.step_view()
        for prep in self._prepared:
            self.gpu._run_prepared(prep, view, self.events, step)

    def rotate(self) -> None:
        """Advance the buffer roles by one step.

        Each name takes over the buffer of the NEXT name in its cycle:
        ``("prev2_h", "prev1_h", "__out__")`` realises the leapfrog
        rotation prev2 <- prev1 <- out <- (old prev2).
        """
        for cycle in self.rotations:
            names = list(cycle)
            olds = [self.binding[n] for n in names]
            for i, n in enumerate(names):
                self.binding[n] = olds[(i + 1) % len(names)]

    def finish(self) -> RunResult:
        """Read the result back and expose the rotated bindings."""
        final = (self.buffers[self.binding.get("__out__",
                                               self.plan.result_buffer)]
                 if (self._out_buffer or self.plan.result_buffer) else None)
        if final is not None:
            self.gpu._record(self.events, "d2h", "result",
                             transfer_time_ms(final.nbytes, self.gpu.device),
                             bytes=final.nbytes)
        # expose buffers under their rotated bindings for inspection
        exposed = {f"final:{h}": self.buffers[b]
                   for h, b in self.binding.items()}
        exposed.update(self.buffers)
        return RunResult(result=final, buffers=exposed, events=self.events)
