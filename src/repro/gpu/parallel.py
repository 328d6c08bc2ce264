"""Multi-process shard executor with compute/communication overlap.

:func:`execute_parallel` is the executor behind
``MultiGPU(..., parallel=True).execute_many``: it turns the Z-slab
decomposition of :class:`~.multi.MultiGPU` into *real* wallclock
parallelism.  Each shard owns an OS process, halo planes move through
shared-memory ring buffers, and the per-step schedule overlaps the
interior sweep with the neighbour exchange — the MPI-X playbook for
generated finite-difference solvers (Bisbas et al., arXiv:2312.13094)
realised on the virtual-GPU runtime.

**Workers run the program they are handed.**  The parent shards the host
program it was given (:func:`~.multi.shard_program`) and pickles each
shard's :class:`~repro.lift.codegen.host.HostProgram` into the worker's
task, together with its shard-local inputs and rotation cycles; a worker
rebuilds nothing.  It steps the program as one device does: one compiled
step over two time levels (:meth:`~.runtime.ResidentPlan.stepping`).

**Overlap schedule.** The serial BSP loop runs *step → rotate → exchange
halos into ``prev1_h``*.  Restructured per worker over the step's Z-plane
blocks (bit-identical, see ``docs/sharding.md``):

* step 0 runs in one call — :meth:`~.multi.Shard.shard_field`
  pre-filled the ``prev1``/``prev2`` halos, so there is nothing to
  exchange and nothing to overlap with;
* every later step: **post** ``prev1_h``'s edge planes to both
  neighbours, run the **interior** blocks ``[h, nb - h)`` (planes whose
  stencil never touches halo data), **wait** for the neighbour planes
  and copy them into ``prev1_h``'s halo regions, then run the two
  **edge** blocks ``[0, h)`` and ``[nb - h, nb)``, and rotate.  Each
  block's boundary points follow the block.

``h`` is the sweep's shift footprint in planes, derived from the arena
IR (:meth:`~repro.lift.codegen.arena.ArenaProgram.halo_footprint`), not
hard-coded.  A step on whole arrays (``tier="numpy"``, no compiler)
cannot be split, so its worker runs a BSP schedule — still
process-parallel, still bit-identical, just without overlap.

**Shared-memory rings.** One ``multiprocessing.shared_memory`` block
per directed neighbour edge, :data:`RING_DEPTH` slots of one halo plane
each, flow-controlled by a (free, filled) semaphore pair — a bounded
SPSC queue, so a shard can run at most :data:`RING_DEPTH` steps ahead of
a neighbour and no step ever reads a torn plane.

**Fallbacks.** Fault injection, resilient wrappers (their recovery
ladders step in-process) or a single shard make
:meth:`~.multi.MultiGPU._parallel_eligible` refuse, and
:meth:`~.multi.MultiGPU.execute_many` runs its in-process BSP loop.

**Failure semantics.** A worker that dies (crash, OOM kill, injected
``_test_kill``) surfaces as :class:`~.multi.ShardLost`, exactly like a
lost device on the serial path: the simulation layer re-shards across
the survivors via :meth:`~.multi.MultiGPU.without_device` — which keeps
``parallel`` — and replays from the last checkpoint.  A worker whose
parent dies exits at once (:func:`exit_with_parent`).

**Start barrier.** Every worker waits at one barrier after opening its
plan, so the measured columns (``loop_wall_s``, ``stall_s``) time the
steps, not a later-spawned neighbour's imports and set-up.  A worker
that dies before the barrier is caught by the parent's liveness poll
like any other, and the workers waiting at it are terminated.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as _queue
import threading
import time as _time
import traceback

import numpy as np

from .. import obs as _obs
from ..lift.codegen.host import HostProgram
from .costmodel import halo_exchange_time_ms, overlapped_step_time_ms
from .multi import (FIELD_PARAMS, PLANE_PARAM, MultiGPU, MultiRunResult,
                    Shard, ShardLost, shard_program, shard_rotations)
from .runtime import ProfilingEvent, ResidentPlan, RunResult, VirtualGPU

#: profiling-event kinds a worker aggregates back to the parent
_EVENT_KINDS = ("kernel", "h2d", "d2h")

#: slots of one halo plane per shared-memory ring: how many steps a
#: shard may run ahead of its neighbour
RING_DEPTH = 2


def exit_with_parent() -> None:
    """Exit this process as soon as the process that started it dies.

    The one parent-death rule of every worker process (shard workers and
    the gateway's pool workers): a daemon thread waits on the parent's
    sentinel, which the OS closes however the parent dies, then ends the
    process — idle, blocked on a halo ring or mid-job.  So no worker has
    to be daemonic, and a worker may start workers of its own.  A no-op
    in a process ``multiprocessing`` did not start.
    """
    parent = mp.parent_process()
    if parent is None:
        return

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True,
                     name="repro-parent-watch").start()


def _attach_shm(name: str):
    """Attach to a parent-owned shared-memory block without registering
    the attachment with the resource tracker.

    The parent created (and registered) the segment and is the one that
    unlinks it; on Python 3.11 ``SharedMemory(name=..., create=False)``
    re-registers in the child, which either double-unlinks at interpreter
    shutdown or spams ``KeyError`` warnings from the shared tracker when
    the parent's unlink races the child's unregister.  Suppressing the
    child-side registration sidesteps both.
    """
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory
    orig = resource_tracker.register
    try:
        resource_tracker.register = lambda *_a, **_k: None
        return SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = orig


class _Ring:
    """One directed halo lane: a bounded SPSC ring over shared memory.

    ``depth`` slots of ``count`` items each; ``free``/``filled`` are the
    classic counting-semaphore pair.  Exactly one process sends and one
    receives, so a single read/write index per side suffices.
    """

    def __init__(self, shm, count: int, dtype, depth: int, free, filled):
        self.shm = shm
        self.depth = depth
        self.free = free
        self.filled = filled
        self.slots = np.ndarray((depth, count), dtype=dtype,
                                buffer=shm.buf)
        self.idx = 0

    def send(self, plane: np.ndarray) -> None:
        self.free.acquire()
        self.slots[self.idx, :] = plane
        self.filled.release()
        self.idx = (self.idx + 1) % self.depth

    def recv_into(self, dest: np.ndarray) -> None:
        self.filled.acquire()
        dest[:] = self.slots[self.idx, :]
        self.free.release()
        self.idx = (self.idx + 1) % self.depth


def _shard_worker_main(task: dict, result_q) -> None:
    """One shard's process: run the resident step loop of the host
    program it was handed under the overlap schedule, ship the finals
    back.

    Module-level (spawn pickles it by reference).  ``task`` carries only
    picklable state: the shard's host program, shard-local inputs/sizes
    and rotation cycles, ring attachments by name, the step count and
    the barrier every shard passes once set up.
    """
    exit_with_parent()
    os.environ["OMP_NUM_THREADS"] = str(task["omp_threads"])
    index = task["index"]
    rings: dict[str, _Ring] = {}
    shms = []
    try:
        plan = task["program"].plan
        li, ls = task["inputs"], task["sizes"]
        n_local, np_local, rp = task["n_local"], task["np_local"], task["rp"]
        steps = task["steps"]
        dtype = np.dtype(task["field_dtype"])
        for lane, (shm_name, free, filled) in task["rings"].items():
            shm = _attach_shm(shm_name)
            shms.append(shm)
            rings[lane] = _Ring(shm, rp, dtype, RING_DEPTH, free, filled)

        gpu = VirtualGPU(task["device"])
        events: list[ProfilingEvent] = []
        st = ResidentPlan.stepping(gpu, plan, li, ls, task["rotations"],
                                   events)
        tier, cc_rung = st.kernel.tier, st.kernel.cc_rung
        # every shard is set up before any steps, so the measured loop
        # times the steps, not a later-spawned neighbour's start-up
        task["barrier"].wait()

        # overlap needs a compiled step (the numpy tier runs whole
        # arrays only) whose edge blocks, the h planes at each end its
        # sweep's footprint reaches past, leave interior blocks between
        # them.  Each block's boundary points follow the block, and
        # posted planes were copied into the ring at send time, so
        # nothing a block writes can tear an in-flight exchange.
        h_lo, h_hi = st.halo_footprint()
        plane = int(li[PLANE_PARAM])
        h, nb = -(-max(h_lo, h_hi) // plane), n_local // plane
        overlap = tier != "numpy" and 0 < h and 2 * h < nb

        kill_at = task.get("kill_at_step")
        receivers: dict[str, tuple[int, list]] = {
            name: (idx, []) for name, idx in task["receivers"].items()}
        send_up, recv_up = rings.get("send_up"), rings.get("recv_up")
        send_dn, recv_dn = rings.get("send_dn"), rings.get("recv_dn")

        stall_s = exchange_wall_s = post_s = 0.0
        interior_ms = boundary_ms = 0.0

        def _model_ms(mark: int) -> float:
            return sum(e.duration_ms for e in events[mark:]
                       if e.kind == "kernel")

        t_loop = _time.perf_counter()
        for step in range(steps):
            if kill_at is not None and step == kill_at:
                os.kill(os.getpid(), 9)
            if step == 0:
                # halos pre-filled by shard_field: nothing to exchange
                st.run_fused(step, shard=index)
            else:
                field = st.buffer_for(FIELD_PARAMS[0])
                t0 = _time.perf_counter()
                for ring, src in ((send_dn, 0), (send_up, n_local - rp)):
                    if ring is not None:
                        ring.send(field[src:src + rp])
                post_s += _time.perf_counter() - t0
                if overlap:
                    mark = len(events)
                    st.run_fused(step, (h, nb - h), shard=index)
                    interior_ms += _model_ms(mark)
                t0 = _time.perf_counter()
                for ring, dst in ((recv_up, n_local),
                                  (recv_dn, np_local - rp)):
                    if ring is not None:
                        t1 = _time.perf_counter()
                        ring.filled.acquire()
                        ring.filled.release()
                        stall_s += _time.perf_counter() - t1
                        ring.recv_into(field[dst:dst + rp])
                exchange_wall_s += _time.perf_counter() - t0
                mark = len(events)
                if overlap:
                    st.run_fused(step, (0, h), shard=index)
                    st.run_fused(step, (nb - h, nb), shard=index)
                    boundary_ms += _model_ms(mark)
                else:
                    st.run_fused(step, shard=index)
            st.rotate()
            for name, (idx, samples) in receivers.items():
                samples.append(float(st.buffer_for(FIELD_PARAMS[0])[idx]))
        loop_wall_s = _time.perf_counter() - t_loop

        res = st.finish()
        totals: dict[tuple[str, str], list] = {}
        for e in events:
            if e.kind in _EVENT_KINDS:
                agg = totals.setdefault((e.kind, e.name), [0.0, 0])
                agg[0] += e.duration_ms
                agg[1] += 1
        result_q.put({
            "shard": index,
            "result": np.asarray(res.result),
            "final": {name: np.asarray(res.buffers[f"final:{name}"])
                      for name in st.binding},
            "event_totals": [(k, n, ms, c)
                             for (k, n), (ms, c) in totals.items()],
            "mode": "overlap" if overlap else "bsp",
            "tier": tier, "cc_rung": cc_rung,
            "footprint": (int(h_lo), int(h_hi)),
            "interior_model_ms": interior_ms,
            "boundary_model_ms": boundary_ms,
            "stall_s": stall_s, "exchange_wall_s": exchange_wall_s,
            "post_s": post_s, "loop_wall_s": loop_wall_s,
            "receivers": {name: samples
                          for name, (_i, samples) in receivers.items()},
        })
    except Exception:
        try:
            result_q.put({"shard": index, "error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        for shm in shms:
            try:
                shm.close()
            except Exception:
                pass


def execute_parallel(pool: MultiGPU, program: HostProgram, inputs: dict,
                     sizes: dict, steps: int, rotations: list,
                     receivers: dict[str, int]) -> MultiRunResult:
    """``pool.execute_many`` with one worker process per shard (see the
    module docstring); ``receivers`` maps names to *global* flat
    indices the owning worker samples after every step."""
    from multiprocessing.shared_memory import SharedMemory

    shards = pool._shards(inputs, sizes)
    k = len(shards)
    ctx = mp.get_context("spawn")
    field_dtype = np.asarray(inputs[FIELD_PARAMS[0]]).dtype
    rp = shards[0].radius * shards[0].plane
    omp = max(1, (os.cpu_count() or 1) // k)

    # receiver ownership: global flat index -> (shard, local index)
    per_shard_recv: list[dict[str, int]] = [{} for _ in shards]
    for name, gidx in receivers.items():
        for sh in shards:
            if sh.lo <= int(gidx) < sh.hi:
                per_shard_recv[sh.index][name] = int(gidx) - sh.lo
                break

    # one ring per directed neighbour edge; the parent owns (and
    # finally unlinks) every segment, children only attach
    shms: list[SharedMemory] = []
    ring_cfg: list[dict] = [{} for _ in shards]
    nbytes = RING_DEPTH * rp * field_dtype.itemsize
    for a, b in zip(shards, shards[1:]):
        for lane_src, lane_dst, src in (("send_up", "recv_dn", a.index),
                                        ("send_dn", "recv_up", b.index)):
            shm = SharedMemory(create=True, size=nbytes)
            shms.append(shm)
            free = ctx.Semaphore(RING_DEPTH)
            filled = ctx.Semaphore(0)
            entry = (shm.name, free, filled)
            if lane_src == "send_up":
                ring_cfg[a.index]["send_up"] = entry
                ring_cfg[b.index]["recv_dn"] = entry
            else:
                ring_cfg[b.index]["send_dn"] = entry
                ring_cfg[a.index]["recv_up"] = entry

    o = _obs.get()
    masks: list[np.ndarray | None] = []
    procs: list = []
    result_q = ctx.Queue()
    barrier = ctx.Barrier(k)
    t_total = _time.perf_counter()
    try:
        for shard in shards:
            li, ls, mask = pool._local_inputs(shard, inputs, sizes)
            masks.append(mask)
            prog = shard_program(program, shard.index, ls)
            task = {
                "index": shard.index, "device": shard.device,
                "program": prog, "inputs": li, "sizes": ls,
                "n_local": shard.n_local, "np_local": shard.np_local,
                "rp": rp, "steps": steps,
                "rotations": shard_rotations(prog.plan, rotations),
                "field_dtype": field_dtype.str,
                "rings": ring_cfg[shard.index], "barrier": barrier,
                "omp_threads": omp,
                "receivers": per_shard_recv[shard.index],
                "kill_at_step": (pool._test_kill or {}).get(shard.index),
            }
            p = ctx.Process(target=_shard_worker_main,
                            args=(task, result_q),
                            name=f"repro-shard-{shard.index}")
            p.start()
            procs.append(p)

        payloads: dict[int, dict] = {}
        while len(payloads) < k:
            try:
                msg = result_q.get(timeout=0.25)
            except _queue.Empty:
                for sh, p in zip(shards, procs):
                    if sh.index not in payloads and not p.is_alive():
                        raise _worker_lost(sh, p.exitcode)
                continue
            if "error" in msg:
                raise ShardLost(
                    f"shard {msg['shard']} "
                    f"({shards[msg['shard']].device.name}) worker "
                    f"failed:\n{msg['error']}",
                    shard=msg["shard"],
                    device=shards[msg["shard"]].device.name)
            payloads[msg["shard"]] = msg
        for p in procs:
            p.join(timeout=10)
        wall_total_s = _time.perf_counter() - t_total
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        result_q.close()
        result_q.cancel_join_thread()
        for shm in shms:
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass

    return _merge_parallel(pool, shards, masks, payloads, inputs, steps,
                           rp, field_dtype, wall_total_s, o)


def _worker_lost(shard: Shard, exitcode) -> ShardLost:
    return ShardLost(
        f"shard {shard.index} ({shard.device.name}) worker process "
        f"died (exit code {exitcode}); resident halo state is gone — "
        f"re-shard across the survivors and replay",
        shard=shard.index, device=shard.device.name)


def _merge_parallel(pool: MultiGPU, shards, masks, payloads, inputs,
                    steps, rp, field_dtype, wall_total_s,
                    o) -> MultiRunResult:
    # synthesise aggregate profiling events from the worker totals:
    # per-shard kernel sums (and so kernel_time_ms = max over
    # shards) are preserved exactly, only the per-step breakdown is
    # collapsed
    results: list[RunResult] = []
    names: set[str] = set()
    for sh in shards:
        pl = payloads[sh.index]
        ev = [ProfilingEvent(kind, name, ms)
              for kind, name, ms, _c in pl["event_totals"]]
        buffers = {f"final:{n}": a for n, a in pl["final"].items()}
        results.append(RunResult(result=pl["result"], buffers=buffers,
                                 events=ev))
        names |= set(pl["final"])

    # price the halo schedule the workers actually executed: one
    # exchange phase per step after the first (step 0 consumed the
    # pre-filled halos; the final field is merged trimmed, so no
    # post-last-step exchange exists to price)
    halo_events: list[ProfilingEvent] = []
    halo_bytes = 0
    halo_ms_to: dict[int, float] = {sh.index: 0.0 for sh in shards}
    nbytes = rp * field_dtype.itemsize
    if steps > 1:
        for op in pool._halo_schedule(shards):
            ms = halo_exchange_time_ms(nbytes,
                                       shards[op.src_device].device,
                                       shards[op.dst_device].device)
            halo_ms_to[op.dst_device] += ms
            for step in range(1, steps):
                halo_bytes += nbytes
                pool._record_halo(shards[op.src_device].device,
                                  shards[op.dst_device].device, nbytes,
                                  f"halo:{op.src_device}->"
                                  f"{op.dst_device}", halo_events, step)

    per_shard = []
    hidden_total = exposed_total = halo_total = 0.0
    step_ms_max = bsp_step_ms_max = 0.0
    for sh in shards:
        pl = payloads[sh.index]
        nsteps = max(1, steps - 1)
        ot = overlapped_step_time_ms(
            pl["interior_model_ms"] / nsteps,
            pl["boundary_model_ms"] / nsteps,
            halo_ms_to[sh.index])
        hidden = ot.hidden_ms * nsteps if pl["mode"] == "overlap" else 0.0
        halo_phase = halo_ms_to[sh.index] * nsteps
        hidden_total += hidden
        exposed_total += halo_phase - hidden
        halo_total += halo_phase
        if pl["mode"] == "overlap":
            step_ms_max = max(step_ms_max, ot.step_ms)
            bsp_step_ms_max = max(bsp_step_ms_max, ot.bsp_step_ms)
        per_shard.append({
            "shard": sh.index, "device": sh.device.name,
            "mode": pl["mode"], "tier": pl["tier"],
            "cc_rung": pl["cc_rung"], "footprint": pl["footprint"],
            "interior_model_ms": pl["interior_model_ms"],
            "boundary_model_ms": pl["boundary_model_ms"],
            "halo_model_ms": halo_phase,
            "hidden_model_ms": hidden,
            "exposed_model_ms": halo_phase - hidden,
            "stall_s": pl["stall_s"],
            "exchange_wall_s": pl["exchange_wall_s"],
            "post_s": pl["post_s"],
            "loop_wall_s": pl["loop_wall_s"],
        })
        if o is not None:
            o.tracer.event(f"shard{sh.index}.overlap", "overlap",
                           hidden, shard=sh.index, mode=pl["mode"],
                           device=sh.device.name)
    if o is not None:
        o.metrics.counter(
            "repro_gpu_overlap_hidden_ms",
            "Modelled halo-exchange time hidden behind interior "
            "compute by the overlap schedule", ("mode",)).inc(
                hidden_total, mode="overlap")
        o.metrics.counter(
            "repro_gpu_overlap_exposed_ms",
            "Modelled halo-exchange time left on the critical path",
            ("mode",)).inc(exposed_total, mode="overlap")

    # measured exposure: wallclock a worker actually spent blocked on
    # neighbour planes, as a share of its total exchange wallclock
    stall = sum(p["stall_s"] for p in payloads.values())
    exch = sum(p["exchange_wall_s"] for p in payloads.values())
    overlap = {
        "executor": "parallel", "shards": len(shards), "steps": steps,
        "per_shard": per_shard,
        "modelled": {
            "step_ms": step_ms_max,
            "bsp_step_ms": bsp_step_ms_max,
            "hidden_ms": hidden_total,
            "exposed_ms": exposed_total,
            "hidden_fraction": (hidden_total / halo_total
                                if halo_total > 0 else 0.0),
        },
        "measured": {
            "wall_total_s": wall_total_s,
            "loop_wall_s": max(p["loop_wall_s"]
                               for p in payloads.values()),
            "stall_s": stall,
            "exchange_wall_s": exch,
            "hidden_fraction": (max(0.0, 1.0 - stall / exch)
                                if exch > 0 else 0.0),
        },
    }
    merged = pool._merge_many(shards, masks, names, results, inputs,
                              halo_events, halo_bytes)
    merged.overlap = overlap
    merged.receivers = {name: np.asarray(samples)
                        for pl in payloads.values()
                        for name, samples in pl["receivers"].items()}
    return merged
