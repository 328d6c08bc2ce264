"""A device pool's open plan: one compiled step over k Z-block ranges.

:class:`PoolPlan` is what :meth:`~.multi.MultiGPU.stepping` opens and
:meth:`~.multi.MultiGPU.execute_many` steps.  It keeps no copy of the
field: it steps the caller's arrays — a simulation's own ``prev``,
``curr``, ``g1`` and ``v``, bound in place — through the one compiled
step a single device runs (:meth:`~.runtime.VirtualGPU.compile_step`),
its arguments bound as a resident plan binds them
(:meth:`~repro.lift.codegen.plan.HostPlan.step_arguments`).
Shard ``i`` owns that step's Z-plane blocks ``[z0, z1)``
(``StepKernel``'s ``_blocks``); the ranges add up to the full step bit
for bit, so nothing is scattered, exchanged or merged.  With
``parallel=True`` each shard's range runs on a persistent thread of its
own (:class:`_ShardThreads`), started when the plan opens: a cc-tier
call releases the GIL, each thread's OpenMP team is capped at
``cpu_count // k``, and a step ends when every thread has run its range.
Otherwise the calling thread runs the step whole
(:meth:`~.multi.MultiGPU.serial_reason`).

Each shard's device is modelled by its shard plan (see
:mod:`.multi`): every step, all of them consult their fault plans and
record their launches on the calling thread — the tracer is
single-threaded — before any range stores anything, so a fault or a
retry leaves no half-stepped level.  :attr:`PoolPlan.overlap` prices the
schedule the paper's devices would overlap the halo exchange with
(Bisbas et al., arXiv:2312.13094): ``max(interior, halo) + boundary``
per shard (:func:`~.costmodel.overlapped_step_time_ms`).
"""

from __future__ import annotations

import functools
import os
import queue
import threading
import time as _time
import weakref

import numpy as np

from .. import obs as _obs
from ..lift.codegen.loops import omp_set_threads
from ..lift.codegen.plan import HostPlan, Launch
from .costmodel import halo_exchange_time_ms, overlapped_step_time_ms
from .multi import LOCAL_PARAMS, MultiGPU, MultiRunResult, shard_plan
from .runtime import GATHER_INDEX_PARAM, ProfilingEvent, leapfrog_cycle


class _ShardThreads:
    """One persistent thread per shard, each running its Z-block range
    of the step it is handed; :meth:`run` returns when every thread has
    run its range (the step's barrier).  The threads end with this
    object (or at :meth:`close`)."""

    def __init__(self, ranges: list[tuple[int, int]], omp_threads: int):
        self._inboxes = [queue.SimpleQueue() for _ in ranges]
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        for i, (blocks, inbox) in enumerate(zip(ranges, self._inboxes)):
            threading.Thread(target=_shard_thread, name=f"repro-shard-{i}",
                             args=(blocks, omp_threads, inbox, self._done),
                             daemon=True).start()
        self.close = weakref.finalize(self, _stop_threads, self._inboxes)

    def run(self, fn, args: dict) -> None:
        for inbox in self._inboxes:
            inbox.put((fn, args))
        errors = [self._done.get() for _ in self._inboxes]
        err = next((e for e in errors if e is not None), None)
        if err is not None:
            raise err


def _shard_thread(blocks, omp_threads: int, inbox, done) -> None:
    omp_set_threads(omp_threads)
    while (task := inbox.get()) is not None:
        fn, args = task
        try:
            fn(**args, _blocks=blocks)
            done.put(None)
        except BaseException as err:    # handed to the stepping thread
            done.put(err)


def _stop_threads(inboxes) -> None:
    for inbox in inboxes:
        inbox.put(None)


class PoolPlan:
    """A pool's open plan (see the module docstring): the state arrays
    stepped by one compiled step, one Z-block range per shard, and one
    modelled device per shard.  It steps as a
    :class:`~.runtime.ResidentPlan` does — :meth:`run_fused`, then
    :meth:`rotate` — and ``events`` receives, per step, the step's
    critical path (the slowest shard's kernel time, as one ``kernel``
    event) and its ``halo`` events.  The shard plans' own events are
    kept for :meth:`finish` with ``keep_shard_events``, else dropped
    every step."""

    def __init__(self, pool: MultiGPU, plan: HostPlan, inputs: dict,
                 sizes: dict[str, int], rotations, events: list,
                 in_place: dict | None, *, setup_step: int | None = None,
                 keep_shard_events: bool = False):
        self.pool = pool
        self.kernel = pool.compile_step(plan, rotations)
        self.rotations = [tuple(n for n in c if n != "__out__")
                          for c in rotations]
        #: the name the newest level rotates into
        self.newest = leapfrog_cycle(rotations)[-2]
        self.events = events
        self.shards = pool._shards(inputs, sizes)
        self._n = int(sizes["N"])
        self._keep = keep_shard_events
        # the state: the in_place arrays, else copies of the inputs at
        # their buffers' width and count (the guard plane padded)
        decls = {d.name: d for d in plan.buffers}
        self.state: dict[str, np.ndarray] = {}
        for name, buf in plan.host_buffers().items():
            if in_place and name in in_place:
                self.state[name] = in_place[name]
                continue
            a = np.asarray(inputs[name]).reshape(-1)
            self.state[name] = np.zeros(int(decls[buf].count.evaluate(sizes)),
                                        decls[buf].scalar.np_dtype)
            self.state[name][:a.size] = a
        # the step's arguments (HostPlan.step_arguments), as a resident
        # plan binds them; the rotating ones are looked up per step
        self._args, self._rotating = plan.step_arguments(
            dict(inputs, **self.state), sizes,
            {n for c in self.rotations for n in c})
        # one modelled device per shard, its arrays zeros bound in place
        self.shard_events: list[list] = [[] for _ in self.shards]
        self._locals: list[tuple[HostPlan, dict, dict]] = []
        self._shard_plans: list = []
        for shard, gpu, ev in zip(self.shards, pool._gpus, self.shard_events):
            li, ls = pool._local_inputs(shard, inputs, sizes)
            local = shard_plan(plan, shard.index, ls)
            ldecls = {d.name: d for d in local.buffers}
            zeros = {n: np.zeros(int(ldecls[b].count.evaluate(ls)),
                                 ldecls[b].scalar.np_dtype)
                     for n, b in local.host_buffers().items()
                     if n in LOCAL_PARAMS}
            li.update(zeros)
            self._locals.append((local, li, ls))
            with pool._shard_loss(shard):
                self._shard_plans.append(gpu.stepping(
                    local, li, ls, rotations, ev, zeros,
                    setup_step=setup_step))
        self._schedule = pool._halo_schedule(self.shards)
        self.halo_bytes = 0
        self._threads = None
        if pool.serial_reason(self.kernel) is None:
            self._threads = _ShardThreads(
                [(s.z0, s.z1) for s in self.shards],
                max(1, (os.cpu_count() or 1) // len(self.shards)))

    def buffer_for(self, name: str) -> np.ndarray:
        """The array currently bound to host parameter ``name``."""
        return self.state[name]

    def run_fused(self, step: int) -> None:
        """One step: every shard plan models its slab's launches — its
        device's fault plan consulted at their sites, under its ladder —
        before any range stores anything; then the shard threads run
        their ranges (or this thread the whole step); then the critical
        path and the halo exchange are priced."""
        marks = [len(ev) for ev in self.shard_events]
        for shard, sp in zip(self.shards, self._shard_plans):
            with self.pool._shard_loss(shard):
                sp.run_fused(step, compute=False, shard=shard.index)
        args = dict(self._args,
                    **{p: self.state[n] for p, n in self._rotating})
        t0 = _time.perf_counter()
        if self._threads is None:
            self.kernel.fn(**args)
        else:
            self._threads.run(self.kernel.fn, args)
        o = _obs.get()
        if o is not None:
            gpu = self.pool._gpus[0]
            getattr(gpu, "gpu", gpu)._observe_host_time(
                o, self.kernel.name, _time.perf_counter() - t0)
        self.events.append(ProfilingEvent("kernel", "critical_path", max(
            sum(e.duration_ms for e in ev[mark:] if e.kind == "kernel")
            for ev, mark in zip(self.shard_events, marks))))
        if not self._keep:
            for ev in self.shard_events:
                ev.clear()
        for op in self._schedule:
            src, dst = self.shards[op.src_device], self.shards[op.dst_device]
            nbytes = op.count * self.state[op.buffer].itemsize
            self.halo_bytes += nbytes
            self.pool._record_halo(src.device, dst.device, nbytes,
                                   f"halo:{op.src_device}->{op.dst_device}",
                                   self.events, step)

    def rotate(self) -> None:
        """Advance the level roles by one step, as
        :meth:`~.runtime.ResidentPlan.rotate` does."""
        for cycle in self.rotations:
            olds = [self.state[n] for n in cycle]
            for i, n in enumerate(cycle):
                self.state[n] = olds[(i + 1) % len(cycle)]

    def close(self) -> None:
        """End the shard threads (the plan steps no more; a dropped plan
        ends them too)."""
        if self._threads is not None:
            self._threads.close()

    def finish(self) -> MultiRunResult:
        """End the threads, read each shard's slab back (its ``d2h``
        event) and return the run: the newest level as ``result``, every
        host parameter's array as ``final:<name>``."""
        self.close()
        for sp in self._shard_plans:
            sp.finish()
        return MultiRunResult(
            result=self.state[self.newest][:self._n],
            buffers={f"final:{n}": a for n, a in self.state.items()},
            shard_events=self.shard_events,
            halo_events=[e for e in self.events if e.kind == "halo"],
            halo_bytes=self.halo_bytes,
            devices=tuple(d.name for d in self.pool.devices),
            overlap=self.overlap)

    @functools.cached_property
    def overlap(self) -> dict:
        """The schedule the paper's devices would overlap the halo
        exchange with, modelled per step and shard: the interior blocks
        (whose stencil reads no halo plane) against the halo planes
        arriving, then the ``h`` edge blocks at each end and the later
        launches, ``h`` being the sweep's footprint in planes
        (:meth:`~repro.lift.codegen.arena.ArenaProgram.halo_footprint`):
        ``mode`` ``overlap``.  A slab with no interior block prices the
        serial sum: ``mode`` ``bsp``."""
        env = {n: v for n, v in self._args.items()
               if not isinstance(v, np.ndarray)}
        foot = tuple(int(f) for f in
                     self.kernel.programs[0].halo_footprint(env))
        halo_to = [0.0] * len(self.shards)
        for op in self._schedule:
            halo_to[op.dst_device] += halo_exchange_time_ms(
                op.count * self.state[op.buffer].itemsize,
                self.shards[op.src_device].device,
                self.shards[op.dst_device].device)
        per_shard = []
        for shard, gpu, (local, li, ls) in zip(self.shards, self.pool._gpus,
                                               self._locals):
            gpu = getattr(gpu, "gpu", gpu)
            hosts = {b: n for n, b in local.host_buffers().items()}

            def ms(op: Launch, n: int) -> float:
                gather = next((np.asarray(li[hosts[b.source]])
                               for b in op.args
                               if b.param_name == GATHER_INDEX_PARAM), None)
                return gpu._launch_timing(
                    op.kernel.kernel_resources(), n,
                    gpu._launch_precision(op), gather).time_ms

            launches = local.launches()
            whole = [ms(op, int(op.global_size.evaluate(ls))
                        if op.global_size is not None else 0)
                     for op in launches]
            h, nb = -(-max(foot) // shard.plane), shard.z1 - shard.z0
            mode = "overlap" if 0 < h and 2 * h < nb else "bsp"
            if mode == "overlap":
                interior = ms(launches[0], (nb - 2 * h) * shard.plane)
                boundary = 2 * ms(launches[0], h * shard.plane) + sum(whole[1:])
            else:
                interior, boundary = 0.0, sum(whole)
            ot = overlapped_step_time_ms(interior, boundary,
                                         halo_to[shard.index])
            per_shard.append({
                "shard": shard.index, "device": shard.device.name,
                "mode": mode, "tier": self.kernel.tier, "cc_rung": self.kernel.cc_rung,
                "footprint": foot, "interior_model_ms": interior,
                "boundary_model_ms": boundary,
                "halo_model_ms": halo_to[shard.index],
                "hidden_model_ms": ot.hidden_ms,
                "exposed_model_ms": ot.exposed_ms,
                "step_model_ms": ot.step_ms,
                "bsp_step_model_ms": ot.bsp_step_ms})
        hidden, halo = (sum(p[k] for p in per_shard)
                        for k in ("hidden_model_ms", "halo_model_ms"))
        return {
            "executor": "pool-loop" if self._threads is None else "parallel",
            "shards": len(self.shards), "per_shard": per_shard,
            "modelled": {
                "step_ms": max(p["step_model_ms"] for p in per_shard),
                "bsp_step_ms": max(p["bsp_step_model_ms"]
                                   for p in per_shard),
                "hidden_ms": hidden, "exposed_ms": halo - hidden,
                "hidden_fraction": hidden / halo if halo > 0 else 0.0}}
