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
rebuilds nothing.

**Overlap schedule.** The serial BSP loop runs *launches → exchange
``__out__`` halos → rotate*.  Restructured per worker (bit-identical,
see ``docs/sharding.md``):

* step 0 runs full-range — :meth:`~.multi.Shard.shard_field` pre-filled
  the ``prev1``/``prev2`` halos, so there is nothing to exchange and
  nothing to overlap with;
* every later step: **post** the freshly rotated field's edge planes to
  both neighbours, launch the **interior** range ``[h_lo, N-h_hi)`` of
  the footprint kernel (cells whose stencil never touches halo data),
  **wait** for the neighbour planes and copy them into the field's halo
  regions, then run the thin **boundary** ranges ``[0, h_lo)`` and
  ``[N-h_hi, N)`` plus every remaining launch (boundary-point kernels
  gather through index vectors that may reach the halos, so they stay
  after the wait), and rotate.

The footprint ``(h_lo, h_hi)`` is derived from the shift-op offsets in
the kernel's own arena IR
(:meth:`~repro.lift.codegen.arena.ArenaProgram.halo_footprint`), not
hard-coded.  When the plan's first launch is not ranged-capable (no
compiled loop tier) the worker falls back to a BSP schedule — still
process-parallel, still bit-identical, just without overlap.

**Shared-memory rings.** One ``multiprocessing.shared_memory`` block
per directed neighbour edge, :data:`RING_DEPTH` slots of one halo plane
each, flow-controlled by a (free, filled) semaphore pair — a bounded
SPSC queue, so a shard can run at most :data:`RING_DEPTH` steps ahead of
a neighbour and no step ever reads a torn plane.

**Fallbacks.** Fault injection, resilient wrappers or a single shard make
:meth:`~.multi.MultiGPU._parallel_eligible` refuse, and
:meth:`~.multi.MultiGPU.execute_many` runs its in-process BSP loop.

**Failure semantics.** A worker that dies (crash, OOM kill, injected
``_test_kill``) surfaces as :class:`~.multi.ShardLost`, exactly like a
lost device on the serial path: the simulation layer re-shards across
the survivors via :meth:`~.multi.MultiGPU.without_device` — which keeps
``parallel`` — and replays from the last checkpoint.  A worker whose
parent dies exits at once (:func:`exit_with_parent`).
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
from ..lift.codegen.host import HostProgram, Launch
from .costmodel import halo_exchange_time_ms, overlapped_step_time_ms
from .multi import (FIELD_PARAMS, MultiGPU, MultiRunResult, Shard,
                    ShardLost, shard_program, shard_rotations)
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


def _launch_env(op, inputs: dict, sizes: dict) -> dict:
    """Kernel-parameter environment of one launch (for evaluating the
    arena IR's shift-offset expressions): sizes plus scalar bindings
    under their *parameter* names."""
    env = dict(sizes)
    for b in op.args:
        if b.kind == "scalar":
            env[b.param_name] = inputs[b.source]
        elif b.kind == "size":
            env[b.param_name] = int(sizes[b.param_name])
    return env


def _shard_worker_main(task: dict, result_q) -> None:
    """One shard's process: run the resident step loop of the host
    program it was handed under the overlap schedule, ship the finals
    back.

    Module-level (spawn pickles it by reference).  ``task`` carries only
    picklable state: the shard's host program, shard-local inputs/sizes
    and rotation cycles, ring attachments by name, and the step count.
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
        halo_binding = task["halo_binding"]
        dtype = np.dtype(task["field_dtype"])
        for lane, (shm_name, free, filled) in task["rings"].items():
            shm = _attach_shm(shm_name)
            shms.append(shm)
            rings[lane] = _Ring(shm, rp, dtype, RING_DEPTH, free, filled)

        gpu = VirtualGPU(task["device"])
        events: list[ProfilingEvent] = []
        st = ResidentPlan(gpu, plan, li, ls, task["rotations"], events,
                          min_out=np_local)

        # overlap eligibility: the footprint kernel must be the plan's
        # first launch, ranged-capable, spanning exactly the owned slab,
        # with a nonzero footprint leaving a nonempty interior.  Later
        # launches need no vetting — they always run after the halo
        # wait, launch order is preserved, and posted planes were copied
        # into the ring at send time (so nothing they write can tear an
        # in-flight exchange).
        launches = [op for op in plan.ops if isinstance(op, Launch)]
        h_lo = h_hi = 0
        overlap = False
        if launches and st.launch_ranged_capable(0):
            prep0 = st._prepared[0]
            prog0 = getattr(prep0.nk, "program", None)
            if prog0 is not None and prep0.n_items == n_local:
                h_lo, h_hi = prog0.halo_footprint(
                    _launch_env(launches[0], li, ls))
                overlap = 0 < h_lo + h_hi < n_local

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
                st.run_step(step, shard=index)
            else:
                field = st.buffer_for(halo_binding)
                t0 = _time.perf_counter()
                if send_dn is not None:
                    send_dn.send(field[0:rp])
                if send_up is not None:
                    send_up.send(field[n_local - rp:n_local])
                post_s += _time.perf_counter() - t0
                view = st.step_view()
                if overlap:
                    mark = len(events)
                    st.run_launch(0, step, view,
                                  rng=(h_lo, n_local - h_hi))
                    interior_ms += _model_ms(mark)
                t0 = _time.perf_counter()
                if recv_up is not None:
                    t1 = _time.perf_counter()
                    recv_up.filled.acquire()
                    recv_up.filled.release()
                    stall_s += _time.perf_counter() - t1
                    recv_up.recv_into(field[n_local:n_local + rp])
                if recv_dn is not None:
                    t1 = _time.perf_counter()
                    recv_dn.filled.acquire()
                    recv_dn.filled.release()
                    stall_s += _time.perf_counter() - t1
                    recv_dn.recv_into(field[np_local - rp:np_local])
                exchange_wall_s += _time.perf_counter() - t0
                mark = len(events)
                if overlap:
                    st.run_launch(0, step, view, rng=(0, h_lo))
                    st.run_launch(0, step, view,
                                  rng=(n_local - h_hi, n_local))
                    for idx in range(1, len(launches)):
                        st.run_launch(idx, step, view)
                    boundary_ms += _model_ms(mark)
                else:
                    st.run_step(step, shard=index)
            st.rotate()
            for name, (idx, samples) in receivers.items():
                samples.append(float(st.buffer_for(halo_binding)[idx]))
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
            "binding_names": list(st.binding),
            "event_totals": [(k, n, ms, c)
                             for (k, n), (ms, c) in totals.items()],
            "mode": "overlap" if overlap else "bsp",
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
    field_name = FIELD_PARAMS[0]
    field_dtype = np.asarray(inputs[field_name]).dtype
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
                "halo_binding": field_name,
                "field_dtype": field_dtype.str,
                "rings": ring_cfg[shard.index],
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
        names |= set(pl["binding_names"])

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
            "mode": pl["mode"], "footprint": pl["footprint"],
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
        "receivers": {name: np.asarray(samples)
                      for pl in payloads.values()
                      for name, samples in pl["receivers"].items()},
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
    return merged
