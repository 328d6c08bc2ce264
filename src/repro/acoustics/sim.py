"""Room-acoustics simulation driver.

Ties the substrate together: geometry → topology → materials → kernels,
with interchangeable execution backends so the LIFT-generated code can be
validated against (and benchmarked against) the hand-written baseline:

``numpy``
    The hand-written vectorised kernels (:mod:`.kernels_numpy`) — the
    stand-in for the paper's tuned OpenCL baseline.
``scalar``
    The loop transliterations of the paper listings (tiny rooms only).
``lift`` (= ``numpy-steady``), ``numba``
    LIFT programs (:mod:`.lift_programs`) lowered once to an
    ``ArenaProgram`` and run as one step
    (:func:`repro.lift.codegen.loops.compile_step`) that overwrites
    ``prev`` in place — i.e. *generated* code: on whole arrays through
    the NumPy workspace-arena source, or compiled.
``lift_interp``
    LIFT programs run by the reference interpreter (tiny rooms only).
``virtual_gpu``
    The full Listing-5 host orchestration executed on a virtual OpenCL
    device (:mod:`repro.gpu.runtime`): the room is uploaded once (the
    state arrays become the device buffers), then only kernels are
    launched per step — on one device, the host program's launches
    as one step — with modelled profiling times accumulated in
    ``modelled_gpu_time_ms``.

The driver allocates state arrays with a one-z-plane guard of zeros at the
end (see :mod:`.lift_programs` for why) and picks its stepping path once,
from one table (``virtual_gpu``: in ``_make_gpu``), as a bound step.  Every
path holds two time levels, ``prev`` and ``curr``: the bound step writes
the next level over ``prev`` (the reference backends through a private
scratch level they trade with ``prev``), then one rotation rule swaps the
two without copying, like the paper's host loop.  The FD-MM branch
velocity is one array, ``v``, which every step updates in place.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs as _obs
from ..lift.codegen.loops import compile_step
from .geometry import Room
from .grid import Grid3D
from .lift_programs import (LEAPFROG, compiled_host, fd_mm_boundary,
                            fi_fused_flat, fi_mm_boundary, host_inputs,
                            host_sizes, volume_kernel)
from .materials import (FDMaterial, FIMaterial, MaterialTable,
                        default_fd_materials, default_fi_materials)
from .topology import RoomTopology, build_topology

SCHEMES = ("fi", "fi_mm", "fd_mm")
#: the unified backend registry.  ``lift`` is an alias that normalises
#: to ``numpy-steady``; that and ``numba`` name the two emitters of one
#: ArenaProgram — the NumPy workspace-arena emitter and the compiled
#: fused-loop emitter (numba / C tiers), bit-identical.  Naming one is an
#: explicit request: with no compiled tier on the host, or programs the
#: step cannot run, ``numba`` raises ``LoopsUnsupported`` from the
#: constructor — the ``virtual_gpu`` default (no emitter named) steps on
#: whole arrays then, and refuses only programs the step cannot run.
BACKENDS = ("numpy", "scalar", "lift", "numpy-steady", "numba",
            "lift_interp", "virtual_gpu")

#: checkpoint container-format version (see docs/resilience.md); v1
#: archives also held a third level, ``nxt``, which loading ignores, and
#: v1 / v2 ones ``v1`` and ``v2``, of which ``v2`` (read next) loads
CHECKPOINT_VERSION = 3

#: the ``virtual_gpu`` paths of a device pool, which advance in segments
_SEGMENTED = ("parallel", "pool-loop")


def _npz_path(path) -> str:
    """``np.savez``'s suffix rule, which :meth:`Checkpoint.save` and
    :meth:`Checkpoint.load` share: ``.npz`` is appended when missing."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


class SimulationDiverged(Exception):
    """The numerical-health monitor detected NaN/Inf or runaway energy.

    Carries the failing ``step``, a human-readable ``reason``, and the
    ``checkpoint`` of the last known-good state (None when checkpointing
    is off) so callers can restart below the point of divergence.
    """

    def __init__(self, step: int, reason: str,
                 checkpoint: "Checkpoint | None" = None):
        self.step = step
        self.reason = reason
        self.checkpoint = checkpoint
        tail = (f"; last good checkpoint at step {checkpoint.time_step}"
                if checkpoint is not None else "; no checkpoint available")
        super().__init__(f"simulation diverged at step {step}: {reason}{tail}")


@dataclass
class Checkpoint:
    """A restartable snapshot of a :class:`RoomSimulation`.

    Holds copies of everything a resumed run reads: the two pressure
    levels ``prev`` and ``curr``, the FD-MM branch state (``g1``, ``v``),
    the step counter, accumulated receiver signals, and the modelled GPU
    and halo-exchange times.  There is no third level to hold: only the
    reference backends keep one, as private scratch their step
    overwrites before reading it.
    ``scheme``/``precision``/``grid_shape`` and ``num_boundary_points``
    stamp the config it belongs to (archives written before the last
    existed load it as ``None``); :meth:`RoomSimulation.restore` refuses
    a mismatched checkpoint.
    """

    time_step: int
    scheme: str
    precision: str
    grid_shape: tuple[int, int, int]
    prev: np.ndarray
    curr: np.ndarray
    g1: np.ndarray
    v: np.ndarray
    receivers: dict[str, tuple[int, list[float]]]
    modelled_gpu_time_ms: float = 0.0
    modelled_halo_time_ms: float = 0.0
    num_boundary_points: int | None = None

    def save(self, path) -> None:
        """Write the checkpoint as a ``.npz`` archive (format v3).

        The write is **atomic**: the archive is serialised to
        ``<path>.tmp``, flushed and fsynced, then moved into place with
        ``os.replace`` — a crash mid-save can truncate only the tmp
        file, never the checkpoint a recovery would :meth:`load`.
        """
        meta = dict(version=CHECKPOINT_VERSION, time_step=self.time_step,
                    scheme=self.scheme, precision=self.precision,
                    grid_shape=list(self.grid_shape),
                    modelled_gpu_time_ms=self.modelled_gpu_time_ms,
                    modelled_halo_time_ms=self.modelled_halo_time_ms,
                    num_boundary_points=self.num_boundary_points,
                    receivers={k: [int(i), list(map(float, s))]
                               for k, (i, s) in self.receivers.items()})
        path = _npz_path(path)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as f:
                np.savez(f, prev=self.prev, curr=self.curr,
                         g1=self.g1, v=self.v,
                         meta=np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):       # interrupted mid-write
                os.remove(tmp)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read an archive :meth:`save` wrote to ``path``."""
        with np.load(_npz_path(path)) as z:
            meta = json.loads(bytes(z["meta"]).decode())
            version = meta.get("version")
            if version not in range(1, CHECKPOINT_VERSION + 1):
                raise ValueError(
                    f"unsupported checkpoint version {version!r} (this "
                    f"build reads v1 to v{CHECKPOINT_VERSION})")
            return cls(
                time_step=int(meta["time_step"]), scheme=meta["scheme"],
                precision=meta["precision"],
                grid_shape=tuple(meta["grid_shape"]),
                prev=z["prev"].copy(), curr=z["curr"].copy(),
                g1=z["g1"].copy(),
                v=z["v" if version == CHECKPOINT_VERSION else "v2"].copy(),
                receivers={k: (int(i), list(s))
                           for k, (i, s) in meta["receivers"].items()},
                modelled_gpu_time_ms=float(meta["modelled_gpu_time_ms"]),
                modelled_halo_time_ms=float(
                    meta.get("modelled_halo_time_ms", 0.0)),
                num_boundary_points=meta.get("num_boundary_points"))


@dataclass
class SimConfig:
    """Configuration of a room simulation.

    The resilience knobs are strictly opt-in — with their defaults
    (0 / None / False) behaviour and modelled times are unchanged:

    ``checkpoint_interval``
        take a :class:`Checkpoint` every k steps during :meth:`run`
        (kept in ``RoomSimulation.last_checkpoint``);
    ``on_checkpoint``
        optional callable invoked with each periodic checkpoint right
        after it is taken — the durability hook: the serving layer's
        crash-recovery spine (``repro.serve``) uses it to persist
        mid-job checkpoints atomically and to model worker death at
        checkpoint boundaries.  Exceptions propagate out of
        :meth:`run` (a crashed hook is a crashed worker);
    ``health_interval``
        run the NaN/Inf + energy-growth monitor every k steps, raising
        :class:`SimulationDiverged` (with the last good checkpoint);
    ``energy_growth_factor``
        divergence threshold: field energy above this multiple of the
        reference energy (first non-zero reading) trips the monitor;
    ``faults``
        a :class:`repro.gpu.faults.FaultPlan` injected into the
        ``virtual_gpu`` backend (launch sites fire every step, allocation
        and upload sites where a plan opens);
    ``resilient``
        step under the ladder of a
        :class:`repro.gpu.resilient.ResilientGPU` (retry/degrade/fallback
        over each step; policy log at ``RoomSimulation.policy_log``);
        with multiple devices each shard steps under its own ladder and a
        lost device is recovered by re-shard-and-replay (see
        :meth:`RoomSimulation.run`).  Neither changes the stepping path;
    ``devices``
        device selection for the ``virtual_gpu`` backend — anything
        :func:`repro.gpu.resolve_device` accepts (``None`` = the default
        TitanBlack, a :class:`DeviceSpec`, a paper name, ``"name:k"``
        shard syntax, or a list).  More than one resolved device selects
        Z-slab domain decomposition (:class:`repro.gpu.multi.MultiGPU`),
        bit-identical to single-device execution.
    ``parallel``
        with more than one device, run each shard in its own OS process
        (``MultiGPU(..., parallel=True)``, :mod:`repro.gpu.parallel`),
        handed the simulation's own host program, with halo planes
        exchanged through shared memory and interior compute overlapping
        the exchange.  A pool the parallel path cannot run (fault
        injection, resilient wrappers, one device left after a shard
        loss) steps the in-process loop of ``MultiGPU.execute_many``
        instead (``pool-loop``, counted as a fallback).  Either way
        ``run()`` advances in segments between checkpoint/health
        boundaries — bit-identical to one device.
    """

    room: Room
    scheme: str = "fi_mm"
    backend: str = "numpy"
    precision: str = "double"
    materials: Sequence[FIMaterial | FDMaterial] | None = None
    num_branches: int = 3
    checkpoint_interval: int = 0
    #: periodic-checkpoint hook (durability; see class docstring)
    on_checkpoint: object | None = None
    health_interval: int = 0
    energy_growth_factor: float = 100.0
    faults: object | None = None          # FaultPlan, opt-in
    resilient: bool = False
    retry: object | None = None           # RetryPolicy for the resilient path
    devices: object | None = None         # resolve_device() designation
    #: multi-device pools only: one worker process per shard with
    #: compute/communication overlap (see class docstring)
    parallel: bool = False
    #: a pre-compiled :class:`repro.lift.codegen.host.HostProgram` for
    #: the ``virtual_gpu`` backend (skips ``compile_host``); must match
    #: (scheme, precision, num_branches) — the serving layer's compile
    #: cache (``repro.serve.cache``) supplies this so repeated shapes
    #: compile once per process, not per job
    host_program: "HostProgram | None" = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; one of {SCHEMES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; one of {BACKENDS}")
        if self.backend == "lift":
            self.backend = "numpy-steady"
        if self.precision not in ("single", "double"):
            raise ValueError("precision must be 'single' or 'double'")
        if self.checkpoint_interval < 0 or self.health_interval < 0:
            raise ValueError("intervals must be >= 0 (0 disables)")
        if self.host_program is not None:
            from ..lift.codegen.host import HostProgram
            if not isinstance(self.host_program, HostProgram):
                raise TypeError(
                    f"host_program must be a compiled HostProgram "
                    f"(from repro.lift.codegen.host.compile_host), got "
                    f"{type(self.host_program).__name__}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64


class RoomSimulation:
    """Time-stepping FDTD room simulation with pluggable backends: two
    pressure levels ``prev`` / ``curr`` and, for ``fd_mm``, the branch
    state ``g1`` and one velocity ``v`` (Listing 5's ``v1`` / ``v2``)."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.grid: Grid3D = config.room.grid
        mats = list(config.materials) if config.materials is not None else None
        if mats is None:
            mats = (default_fd_materials(4) if config.scheme == "fd_mm"
                    else default_fi_materials(4))
        self.materials = mats
        num_materials = max(1, len(mats))
        self.topology: RoomTopology = build_topology(config.room,
                                                     num_materials)
        dtype = config.dtype
        if config.scheme == "fd_mm":
            if not all(isinstance(m, FDMaterial) for m in mats):
                raise ValueError("fd_mm scheme requires FDMaterial entries")
            self.table = MaterialTable.from_fd(mats, config.num_branches,
                                               dtype=dtype)
        else:
            fi = [m.as_fi() if isinstance(m, FDMaterial) else m for m in mats]
            self.table = MaterialTable.from_fi(fi, dtype=dtype)

        g = self.grid
        self._N = g.num_points
        self._guard = g.nx * g.ny
        total = self._N + self._guard
        self.prev = np.zeros(total, dtype=dtype)
        self.curr = np.zeros(total, dtype=dtype)
        # the topology's own guarded int8 counts; emitters widen on load
        self._nbrs_guarded = self.topology.nbrs_guarded
        self.nbrs = self._nbrs_guarded[:self._N]

        K = self.topology.num_boundary_points
        MB = self.table.num_branches
        self.g1 = np.zeros(MB * K, dtype=dtype)
        self.v = np.zeros(MB * K, dtype=dtype)   # updated in place

        self.time_step = 0
        self.receivers: dict[str, tuple[int, list[float]]] = {}

        self.modelled_gpu_time_ms = 0.0
        self.modelled_halo_time_ms = 0.0
        #: the last bulk-parallel segment's overlap report
        #: (``MultiRunResult.overlap``); None before any segment ran
        self.last_overlap: dict | None = None
        self.last_checkpoint: Checkpoint | None = None
        self._energy_ref: float | None = None
        #: the open resident plan of the single-device ``virtual_gpu``
        #: path (None on every other path, and before the first step)
        self._plan = None
        #: the two-level step of ``numpy-steady``, ``numba`` and the
        #: ``resident`` path (None elsewhere)
        self._step = None
        #: the tier a step runs on, named on its ``sim.step`` span (None
        #: on the reference backends and on ``parallel``, whose
        #: ``sim.segment`` spans name their shards')
        self._tier = None
        #: why a ``virtual_gpu`` path is a fallback, named on its spans
        self._fallback = None
        #: the stepping path, chosen once (here, or in :meth:`_make_gpu`):
        #: its name and the bound step
        self._path = config.backend
        self._advance = {"numpy": self._setup_reference,
                         "scalar": self._setup_reference,
                         "numpy-steady": self._compile_lift,
                         "numba": self._compile_lift,
                         "lift_interp": self._setup_interp,
                         "virtual_gpu": self._setup_virtual_gpu,
                         }[config.backend]()

    def _setup_reference(self):
        """``numpy`` / ``scalar``: bind the reference kernels (paper
        Listings 1-4), the grid arguments they take and the type of
        their scalars as ``_ref``; no other path imports them.  Returns
        the bound step."""
        self._scratch = np.zeros_like(self.curr)
        g = self.grid
        if self.config.backend == "numpy":
            from . import kernels_numpy as k
            self._ref = (k.fi_fused_step, k.volume_step, k.fi_mm_boundary,
                         k.fd_mm_boundary, (g.shape,), self.config.dtype)
        else:
            from . import kernels_scalar as k
            self._ref = (k.fi_fused_step_scalar_nbrs, k.volume_step_scalar,
                         k.fi_mm_boundary_scalar, k.fd_mm_boundary_scalar,
                         (g.nx, g.ny, g.nz), float)
        return self._step_reference

    # -- LIFT backends ----------------------------------------------------------------
    def _programs(self) -> dict:
        """The scheme's LIFT kernels by role, in launch order."""
        prec = self.config.precision
        if self.config.scheme == "fi":
            return {"fused": fi_fused_flat(prec)}
        return {"volume": volume_kernel(prec),
                "boundary": (fi_mm_boundary(prec)
                             if self.config.scheme == "fi_mm" else
                             fd_mm_boundary(prec, self.table.num_branches))}

    def _compile_lift(self):
        """Lower :meth:`_programs` into one step (``_step``) over two
        time levels: on whole arrays for ``numpy-steady``, compiled for
        ``numba``.  Returns the bound step."""
        from ..lift.codegen.numpy_backend import lower_arena
        steady = self.config.backend == "numpy-steady"
        self._step = compile_step([lower_arena(p.kernel, p.name)
                                   for p in self._programs().values()],
                                  tier="numpy" if steady else None)
        self._tier = self._step.tier
        if not steady:
            self._path = "fused-step"
        return self._step_fused

    def _setup_virtual_gpu(self):
        from ..gpu.device import resolve_device
        cfg = self.config
        self._host_program = cfg.host_program or compiled_host(
            cfg.scheme, cfg.precision, self.table.num_branches)
        self._make_gpu(resolve_device(cfg.devices))
        return self._step_resident

    def _make_gpu(self, devices, pool=None) -> None:
        """Build the executor for a resolved device tuple, or adopt
        ``pool`` (a re-shard's survivors), and select the stepping path,
        here and nowhere else.  One device steps ``resident``: the host
        program's launches as one two-level step per step
        (``VirtualGPU.compile_step``), which the resident plan models as
        its launches — under a ``ResilientGPU`` ladder when
        ``resilient``.  A pool steps ``parallel`` when
        ``_parallel_eligible()`` passes, else ``pool-loop``
        (``MultiGPU.execute_many``'s in-process loop), in segments.  A
        plan the step refuses raises ``LoopsUnsupported``.  Every path
        writes the next level over ``prev``, so none allocates a level."""
        from ..gpu.runtime import VirtualGPU
        cfg = self.config
        if pool is None and len(devices) > 1:
            from ..gpu.multi import MultiGPU
            pool = MultiGPU(devices, faults=cfg.faults,
                            resilient=cfg.resilient, retry=cfg.retry,
                            parallel=cfg.parallel)
        gpu = pool or VirtualGPU(devices[0], faults=cfg.faults)
        step = gpu.compile_step(self._host_program.plan, (LEAPFROG,))
        why = None if pool is None else pool._parallel_eligible()
        # a resident plan is bound to its executor
        self._plan, self._step = None, step
        self._path = ("resident" if pool is None
                      else "pool-loop" if why else "parallel")
        self._tier = None if self._path == "parallel" else step.tier
        self._fallback = why if cfg.parallel else None
        if pool is None and cfg.resilient:
            from ..gpu.resilient import ResilientGPU
            gpu = ResilientGPU(gpu, retry=cfg.retry)
        self._gpu = gpu
        o = _obs.get()
        if self._fallback is not None and o is not None:
            o.metrics.counter(
                "repro_sim_path_fallbacks_total",
                "Simulations built onto a fallback stepping path",
                ("path", "reason")).inc(path=self._path,
                                        reason=self._fallback)

    @property
    def devices(self):
        """Device pool currently executing (virtual_gpu backend only,
        ``()`` otherwise).  After a shard-loss recovery this reflects the
        surviving pool, not the one the simulation was configured with."""
        gpu = getattr(self, "_gpu", None)
        if gpu is None:
            return ()
        if hasattr(gpu, "devices"):
            return tuple(gpu.devices)
        return (gpu.device,)

    @property
    def policy_log(self):
        """Recovery-policy log of the resilient executor ([] otherwise);
        for a multi-device pool, the concatenated per-shard logs."""
        gpu = getattr(self, "_gpu", None)
        if gpu is None:
            return []
        if hasattr(gpu, "policy_logs"):
            return gpu.policy_logs()
        return getattr(gpu, "log", [])

    def set_devices(self, devices) -> None:
        """Re-target the virtual_gpu backend: accepts anything
        :func:`repro.gpu.resolve_device` does (a spec, a paper name,
        ``"name:k"`` shard syntax, or a list of those)."""
        from ..gpu.device import resolve_device
        if self.config.backend != "virtual_gpu":
            raise ValueError("set_devices re-targets the virtual_gpu "
                             f"backend; this is {self.config.backend!r}")
        self._make_gpu(resolve_device(devices))

    def _setup_interp(self):
        from ..lift.interp import Interp
        self._scratch = np.zeros_like(self.curr)
        self._interp = Interp(sizes=host_sizes(self.grid, self.topology,
                                               self.table))
        self._p = {role: p.kernel for role, p in self._programs().items()}
        return self._step_lift_interp

    # -- sources / receivers --------------------------------------------------------------
    def point_index(self, position: tuple[int, int, int] | str) -> int:
        g = self.grid
        if position == "center":
            position = (g.nx // 2, g.ny // 2, g.nz // 2)
        x, y, z = point = tuple(int(c) for c in position)
        if point != tuple(position):
            raise ValueError(f"point {position} is not a grid point")
        if not self.topology.room.contains(x, y, z):
            raise ValueError(f"point {position} lies outside the room")
        return int(g.flat_index(x, y, z))

    def add_impulse(self, position: tuple[int, int, int] | str = "center",
                    amplitude: float = 1.0) -> int:
        """Inject an impulse into the current state; returns the flat index."""
        idx = self.point_index(position)
        self.curr[idx] += amplitude
        return idx

    def add_receiver(self, name: str,
                     position: tuple[int, int, int] | str = "center") -> None:
        self.receivers[name] = (self.point_index(position), [])

    def receiver_signal(self, name: str) -> np.ndarray:
        return np.asarray(self.receivers[name][1])

    # -- stepping ---------------------------------------------------------------------------
    def step(self) -> None:
        if self._path in _SEGMENTED:
            return self._step_segment(self.time_step + 1)
        o, cfg = _obs.get(), self.config
        with (nullcontext() if o is None else o.tracer.span(
                "sim.step", "sim", step=self.time_step, scheme=cfg.scheme,
                backend=cfg.backend, **self._path_attrs())):
            self._step_impl()

    def _path_attrs(self) -> dict:
        """``path``, with ``tier`` and ``fallback`` where set: the
        attributes of a step/segment span."""
        attrs = dict(path=self._path, tier=self._tier,
                     fallback=self._fallback)
        return {k: v for k, v in attrs.items() if v is not None}

    def _step_impl(self) -> None:
        """The bound step (the next level written over ``prev``), the
        one rotation rule, the receiver samples, then the trailer."""
        self._advance()
        self.prev, self.curr = self.curr, self.prev
        for name, (idx, sig) in self.receivers.items():
            sig.append(float(self.curr[idx]))
        self._stepped(1)

    def _stepped(self, n: int) -> None:
        """The trailer of ``n`` steps (one, or a bulk segment): counter,
        periodic health check and checkpoint hook, then the metrics."""
        cfg = self.config
        self.time_step += n
        if cfg.health_interval and self.time_step % cfg.health_interval == 0:
            self._check_health()
        if (cfg.checkpoint_interval
                and self.time_step % cfg.checkpoint_interval == 0):
            self.last_checkpoint = self.checkpoint()
            if cfg.on_checkpoint is not None:
                cfg.on_checkpoint(self.last_checkpoint)
        o = _obs.get()
        if o is None:
            return
        o.metrics.counter(
            "repro_sim_steps_total", "Completed simulation time steps",
            ("scheme", "backend")).inc(n, scheme=cfg.scheme,
                                       backend=cfg.backend)
        if self.receivers:
            o.metrics.counter(
                "repro_sim_receiver_samples_total",
                "Pressure samples captured at receiver points").inc(
                    n * len(self.receivers))

    def run(self, steps: int) -> None:
        o, cfg = _obs.get(), self.config
        with (nullcontext() if o is None else o.tracer.span(
                "sim.run", "sim", steps=steps, scheme=cfg.scheme,
                backend=cfg.backend, grid=str(self.grid.shape))):
            self._run_impl(steps)

    def _run_impl(self, steps: int) -> None:
        """Step to ``time_step + steps``, recovering lost shards.

        On a multi-device pool a :class:`repro.gpu.multi.ShardLost`
        (a device dropped off the bus and per-shard policies escalated)
        is recovered globally: re-shard across the surviving devices,
        restore the last checkpoint, and replay — bit-identical to an
        uninterrupted run because the decomposition is exact and the
        stepper is deterministic.  An initial checkpoint is taken up
        front so there is always a restore point."""
        from ..gpu.multi import ShardLost
        target = self.time_step + steps
        if self._path in _SEGMENTED and self.last_checkpoint is None:
            self.last_checkpoint = self.checkpoint()
        while self.time_step < target:
            try:
                if self._path in _SEGMENTED:
                    self._step_segment(target)
                else:
                    self.step()
            except ShardLost as lost:
                self._recover_shard_loss(lost)

    def _step_segment(self, target: int) -> None:
        """Advance a pool in one ``execute_many`` call — across the shard
        worker processes (``parallel``) or in the in-process loop
        (``pool-loop``) — stopping at the next checkpoint/health
        boundary so periodic hooks fire at exactly the time steps a
        step-by-step run fires them.  Receivers are sampled by the
        shards (each step, post-rotation — where :meth:`_step_impl`
        samples ``curr``) and splice back in bulk."""
        cfg = self.config
        n = target - self.time_step
        for interval in (cfg.checkpoint_interval, cfg.health_interval):
            if interval:
                n = min(n, interval - self.time_step % interval)
        o = _obs.get()
        with (nullcontext() if o is None else o.tracer.span(
                "sim.segment", "sim", step=self.time_step, steps=n,
                scheme=cfg.scheme, shards=len(self.devices),
                **self._path_attrs())) as span:
            res = self._gpu.execute_many(
                self._host_program, *self._vgpu_io(), n,
                rotations=(LEAPFROG,),
                receivers={name: idx
                           for name, (idx, _s) in self.receivers.items()},
                first_step=self.time_step)
            if span is not None and res.overlap:
                # the workers' step, known once it ran
                span.attrs["tier"] = res.overlap["per_shard"][0]["tier"]
        N = self._N
        self.curr[:N] = res.buffers["final:prev1_h"]
        self.prev[:N] = res.buffers["final:prev2_h"]
        if cfg.scheme == "fd_mm":
            self.g1[:] = res.buffers["final:g1_h"]
            self.v[:] = res.buffers["final:v2_h"]     # the step's vel_prev
        self.modelled_gpu_time_ms += res.kernel_time_ms()
        self.modelled_halo_time_ms += res.halo_time_ms()
        self.last_overlap = res.overlap
        for name, samples in res.receivers.items():
            self.receivers[name][1].extend(float(x) for x in samples)
        self._stepped(n)

    def _recover_shard_loss(self, lost) -> None:
        """Drop the dead device, re-shard, and rewind to the checkpoint.

        The surviving pool reuses the same fault plan instance, so
        one-shot injected faults that already fired do not re-fire
        during the replay."""
        if self.last_checkpoint is None or lost.shard is None:
            raise lost
        survivors = self._gpu.without_device(lost.shard)
        o = _obs.get()
        if o is not None:
            o.tracer.event("sim.reshard", "sim", 0.0,
                           lost_shard=lost.shard,
                           lost_device=lost.context.get("device", ""),
                           survivors=len(survivors.devices),
                           replay_from=self.last_checkpoint.time_step)
            o.metrics.counter(
                "repro_sim_reshards_total",
                "Shard-loss recoveries (re-shard and replay)").inc()
        self._make_gpu(survivors.devices, pool=survivors)
        self.restore(self.last_checkpoint)

    # -- checkpoint / restart ---------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot everything the stepper mutates (deep copies)."""
        return Checkpoint(
            time_step=self.time_step, scheme=self.config.scheme,
            precision=self.config.precision, grid_shape=self.grid.shape,
            prev=self.prev.copy(), curr=self.curr.copy(),
            g1=self.g1.copy(), v=self.v.copy(),
            receivers={k: (i, list(s)) for k, (i, s) in
                       self.receivers.items()},
            modelled_gpu_time_ms=self.modelled_gpu_time_ms,
            modelled_halo_time_ms=self.modelled_halo_time_ms,
            num_boundary_points=self.topology.num_boundary_points)

    def restore(self, cp: Checkpoint) -> None:
        """Resume from a checkpoint: continuing reproduces an
        uninterrupted run bit-identically (the stepper is deterministic
        and the snapshot holds every mutated array).  Everything is
        checked before anything is written, so a refused checkpoint
        leaves the state as it was."""
        K = self.topology.num_boundary_points
        if (cp.scheme != self.config.scheme
                or cp.precision != self.config.precision
                or tuple(cp.grid_shape) != tuple(self.grid.shape)
                or cp.num_boundary_points not in (None, K)):
            raise ValueError(
                f"checkpoint mismatch: snapshot is scheme={cp.scheme!r} "
                f"precision={cp.precision!r} grid={tuple(cp.grid_shape)} "
                f"K={cp.num_boundary_points}, "
                f"simulation is scheme={self.config.scheme!r} "
                f"precision={self.config.precision!r} "
                f"grid={tuple(self.grid.shape)} K={K}")
        for name in ("prev", "curr", "g1", "v"):
            have, want = np.shape(getattr(cp, name)), getattr(self, name).shape
            if have != want:
                raise ValueError(f"checkpoint mismatch: {name} has shape "
                                 f"{have}, the simulation's {want}")
        self.prev[:] = cp.prev
        self.curr[:] = cp.curr
        self.g1[:] = cp.g1
        self.v[:] = cp.v
        self.time_step = cp.time_step
        self.receivers = {k: (i, list(s)) for k, (i, s) in
                          cp.receivers.items()}
        self.modelled_gpu_time_ms = cp.modelled_gpu_time_ms
        self.modelled_halo_time_ms = cp.modelled_halo_time_ms
        self.last_checkpoint = cp

    def save_checkpoint(self, path) -> None:
        self.checkpoint().save(path)

    def load_checkpoint(self, path) -> None:
        self.restore(Checkpoint.load(path))

    # -- numerical health --------------------------------------------------------------
    def _check_health(self) -> None:
        """NaN/Inf and energy-growth detection (the FDTD schemes are
        energy-stable below the Courant limit, so runaway energy means
        divergence)."""
        o = _obs.get()
        if o is not None:
            o.metrics.counter(
                "repro_sim_health_checks_total",
                "Numerical-health monitor invocations").inc()
        cfg = self.config
        bad = ~np.isfinite(self.curr[:self._N])
        reason = None
        if bad.any():
            reason = (f"non-finite pressure at flat index "
                      f"{int(np.flatnonzero(bad)[0])} "
                      f"({int(bad.sum())} bad points)")
        elif cfg.scheme == "fd_mm" and not (
                np.isfinite(self.v).all() and np.isfinite(self.g1).all()):
            reason = "non-finite FD-MM branch state"
        else:
            e = self.energy()
            if o is not None:
                o.metrics.gauge(
                    "repro_sim_field_energy",
                    "Field-energy proxy (sum of squared pressure)",
                    ("scheme",)).set(e, scheme=cfg.scheme)
            if self._energy_ref is None:
                if e > 0.0:
                    self._energy_ref = e
            elif (cfg.energy_growth_factor > 0
                    and e > cfg.energy_growth_factor * self._energy_ref):
                reason = (f"field energy {e:.3e} exceeds "
                          f"{cfg.energy_growth_factor:g}x the reference "
                          f"{self._energy_ref:.3e}")
        if reason is None:
            return
        if o is not None:
            o.metrics.counter(
                "repro_sim_divergence_total",
                "Simulations stopped by the health monitor").inc()
            o.tracer.event("sim.diverged", "sim", 0.0,
                           step=self.time_step, reason=reason)
        raise SimulationDiverged(self.time_step, reason, self.last_checkpoint)

    # -- backend steps ------------------------------------------------------------------------
    def _lam(self):
        return self.config.dtype(self.grid.courant)

    def _trade(self) -> None:
        """A reference step wrote the next level into its scratch level:
        that becomes ``prev``, for the rotation to make it ``curr``."""
        self.prev, self._scratch = self._scratch, self.prev

    def _step_reference(self):
        fused, volume, fi_mm, fd_mm, grid, scalar = self._ref
        N = self._N
        t, tb = self.topology, self.table
        lam = scalar(self.grid.courant)
        nxt, prev = self._scratch[:N], self.prev[:N]
        if self.config.scheme == "fi":
            fused(prev, self.curr[:N], nxt, self.nbrs, *grid, lam,
                  scalar(tb.beta[0]))
        else:
            volume(prev, self.curr[:N], nxt, self.nbrs, *grid, lam)
        boundary = (nxt, prev, t.boundary_indices, self.nbrs, t.material,
                    tb.beta)
        if self.config.scheme == "fi_mm":
            fi_mm(*boundary, lam)
        elif self.config.scheme == "fd_mm":
            fd_mm(*boundary, tb.BI, tb.DI, tb.F, tb.D, self.g1, self.v,
                  self.v, lam)
        self._trade()

    def _kernel_args(self, out) -> dict:
        """Positional arguments of each of :meth:`_programs`, by role,
        with ``out`` as the level the boundary program writes."""
        g = self.grid
        t = self.topology
        tb = self.table
        lam = self._lam()
        if self.config.scheme == "fi":
            return {"fused": (self.prev, self.curr, self._nbrs_guarded, lam,
                              tb.beta[0], g.nx, g.nx * g.ny)}
        boundary = (t.boundary_indices, t.material, self.nbrs, tb.beta)
        if self.config.scheme == "fi_mm":
            boundary += (out, self.prev, lam)
        else:
            boundary += (tb.BI.reshape(-1), tb.DI.reshape(-1),
                         tb.F.reshape(-1), tb.D.reshape(-1),
                         out, self.prev, self.g1, self.v, self.v,
                         lam, t.num_boundary_points)
        return {"volume": (self.prev, self.curr, self._nbrs_guarded, lam,
                           g.nx, g.nx * g.ny),
                "boundary": boundary}

    def _step_args(self) -> dict:
        """The compiled step's arguments by name: :meth:`_kernel_args`
        with ``prev`` as the written level, one value per name — the
        sweep's, so the boundary program reads the guarded ``nbrs``."""
        args = host_sizes(self.grid, self.topology, self.table)
        for prog, values in zip(self._step.programs,
                                self._kernel_args(self.prev).values()):
            for name, value in zip(prog.param_names, values):
                args.setdefault(name, value)
        return args

    def _step_fused(self):
        self._step.fn(**self._step_args())

    def _vgpu_io(self) -> tuple[dict, dict]:
        """Listing 5's host inputs and sizes (``host_inputs``), bound to
        the live state arrays, not copies."""
        return host_inputs(self.config.scheme, self.grid, self.topology,
                           self.table, self.prev, self.curr, self.g1, self.v)

    def _step_resident(self):
        """One device-resident step: no transfers.  The plan is opened
        on the first step with every state, topology and coefficient
        array bound in place (``CL_MEM_USE_HOST_PTR``), so the kernels
        read and write ``prev``/``curr`` and the branch state directly,
        and ``add_impulse``, receivers, checkpoints and the health
        monitor need no sync.  One call of the plan's step overwrites
        ``prev`` (``ResidentPlan.stepping``, as every shard steps): the
        plan's third level, the launches' output buffer, is declared but
        has no host array, and the plan only records the launches it
        models.  The plan rotates its levels as :meth:`_step_impl`
        rotates the arrays, so the two stay one (under a
        ``ResilientGPU``, every plan its ladder opens does)."""
        plan = self._plan
        if plan is None:
            inputs, sizes = self._vgpu_io()
            bound = {n: a for n, a in inputs.items()
                     if isinstance(a, np.ndarray)}
            plan = self._plan = self._gpu.stepping(
                self._host_program.plan, inputs, sizes, (LEAPFROG,), [],
                bound, setup_step=self.time_step)
        plan.run_fused(self.time_step)
        plan.rotate()
        # only kernel time is charged, like RunResult.kernel_time_ms();
        # drained every step so the event list cannot grow with the run
        self.modelled_gpu_time_ms += sum(
            e.duration_ms for e in plan.events if e.kind == "kernel")
        plan.events.clear()

    def _step_lift_interp(self):
        for role, args in self._kernel_args(self._scratch).items():
            res = self._interp.run(
                self._p[role], *(float(a) if isinstance(a, np.floating)
                                 else a for a in args))
            if role != "boundary":      # the boundary kernels write in place
                self._scratch[:self._N] = np.asarray(res)
        self._trade()

    # -- diagnostics -------------------------------------------------------------------------
    def energy(self) -> float:
        """A simple field-energy proxy: Σ curr² over the grid."""
        return float(np.sum(self.curr[:self._N].astype(np.float64) ** 2))

    def state_snapshot(self) -> np.ndarray:
        """Copy of the current state as a (z, y, x) volume."""
        return self.curr[:self._N].reshape(self.grid.shape).copy()
