"""The measured process of the perf ledger.

``run.py`` starts this script once per role, each time in a fresh
interpreter with a private temp root in its environment:

``prime``
    untimed; compiles the workload's kernels on a tiny room so the
    artifact cache is warm (the cc source does not depend on room size);
``setup``
    measures ``setup_s`` only — from just before ``import repro`` to the
    end of the first completed op — then exits;
``timed``
    set-up (measured the same way), warm-up to the verification step,
    the light-cone / npz checks, then the timed phase of blocks;
``probe``
    traced runs only: per-layer probes that must not share a process
    with the timed phase (see ``probes.py``).

Every layer is timed from outside, around public calls.  The result is
one JSON object written to ``result_path``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback

#: stamped before numpy or repro are imported: ``setup_s`` counts from here
_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))

import procs  # noqa: E402
from estimator import best_block, diagnostics, keep_going  # noqa: E402
from workloads import (GATEWAY_RSS_AT, GATEWAY_STEPS,  # noqa: E402
                       GATEWAY_VERIFIED, GATEWAY_WARMUP, SMOKE_DIMS,
                       WORKLOADS, Lane, gateway_request, loops_layers, now,
                       verify_steps)


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _min_blocks(spec, cfg) -> int:
    """A traced run compares traced with untraced blocks, so it needs at
    least two of each."""
    return max(spec["min_blocks"], 4 if cfg["trace"] else 0)


# -- room workloads ----------------------------------------------------------

def _host_facts() -> dict:
    import numpy
    from repro.lift.codegen.loops import LoopsUnsupported, select_tier
    try:
        tier = select_tier()
    except LoopsUnsupported:
        tier = "none (numpy-steady fallback)"
    return {"numpy": numpy.__version__, "loop_tier": tier}


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _setup_room(cfg, spec, rec, dims, steps):
    """Set-up of a room workload: import, (traced: topology,) construct
    lane 0, place source and receivers, first op."""
    lanes = [Lane(s, kw, spec["bulk"]) for s, kw in spec["lanes"]]
    out = {}
    with rec.span("setup"):
        with rec.span("import"):
            import repro  # noqa: F401
            from repro.acoustics import BoxRoom, Grid3D, Room, build_topology
        out["import_s"] = now() - _T0
        from lightcone import pick_positions
        impulse, recv_b = pick_positions(cfg["seed"], dims, steps)
        if cfg["trace"]:
            # a benchmark-owned extra call: the constructor below builds
            # its own topology, this span only sizes that share of it
            t0 = now()
            with rec.span("topology"):
                build_topology(Room(Grid3D(*dims), BoxRoom()), 4)
            out["topology_s"] = now() - t0
        t0 = now()
        with rec.span("sim_ctor"):
            lanes[0].build(dims)
        out["sim_ctor_s"] = now() - t0
        lanes[0].place(impulse, recv_b)
        with rec.span("first_op"):
            lanes[0].first_op_s = lanes[0].advance(1)[0]
    out["setup_s"] = now() - _T0 - out.get("topology_s", 0.0)
    return lanes, impulse, recv_b, out


def _parallel_layers(lane: Lane) -> dict:
    """``gpu.parallel.*`` from the bulk segments of the timed phase; the
    time split is the best segment's, the counts cover all of them.
    ``spawn + loop + outside`` equals the segment wall by construction."""
    timed = lane.segments[-len(lane.blocks):]
    wall, overlap = min(timed, key=lambda s: s[0])
    measured = overlap.get("measured", {})
    total = measured.get("wall_total_s", 0.0)
    loop = measured.get("loop_wall_s", 0.0)
    return {
        "gpu.parallel.segment_s": wall,
        "gpu.parallel.loop_s": loop,
        "gpu.parallel.spawn_s": total - loop,
        "gpu.parallel.outside_s": wall - total,
        "gpu.parallel.stall_s": measured.get("stall_s", 0.0),
        "gpu.parallel.exchange_s": measured.get("exchange_wall_s", 0.0),
        "gpu.parallel.hidden_fraction": measured.get("hidden_fraction", 0.0),
        "gpu.parallel.overlap_shards": sum(
            1 for s in overlap.get("per_shard", ())
            if s.get("mode") == "overlap"),
        "gpu.parallel.fallback_segments": sum(
            1 for _w, o in timed if o.get("executor") != "parallel"),
    }


def _lane_layers(cfg, lane: Lane, rec) -> dict:
    """Per-layer numbers that need the lane's simulation while it is
    still resident (traced runs only)."""
    if cfg["workload"] == "kernels_302":
        return loops_layers(
            lane, 1e3 * best_block(v for v, _t in lane.blocks))
    if cfg["workload"] == "vgpu_302":
        return {"gpu.vgpu.modelled_ms_per_step":
                lane.sim.modelled_gpu_time_ms / lane.sim.time_step}
    layers = _parallel_layers(lane)       # the bulk lane of shards2_151
    t0 = now()
    with rec.span("checkpoint"):
        lane.sim.checkpoint()
    layers["acoustics.checkpoint_s"] = now() - t0
    return layers


def run_room(cfg, rec) -> dict:
    spec = WORKLOADS[cfg["workload"]]
    dims = SMOKE_DIMS if cfg["smoke"] else spec["dims"]
    block_ops = spec["block_ops"]
    steps = verify_steps(spec)
    shm_before = _shm_segments()
    lanes, impulse, recv_b, out = _setup_room(cfg, spec, rec, dims, steps)
    import numpy as np
    import lightcone
    from repro.gpu.runtime import kernel_cache_stats
    out.update(_host_facts())
    if cfg["role"] == "setup":
        return out

    failures: list[str] = []
    op_times: list[float] = []
    layers: dict = {"lift.arena_slot_bytes": 0}
    offset = tuple(b - a for a, b in zip(impulse, recv_b))
    min_blocks = _min_blocks(spec, cfg)
    index = 0
    # one simulation is resident at a time: three would peak at 5.3 GB,
    # and first touch of memory is this host's most expensive operation
    for position, lane in enumerate(lanes):
        if position:                      # lane 0 came up during set-up
            lane.build(dims)
            lane.place(impulse, recv_b)
            lane.first_op_s = lane.advance(1)[0]

        def verify():
            got = lightcone.snapshot(lane.sim, impulse, steps)
            if position == 0 and cfg.get("perturb_ulp"):
                got = lightcone.perturb_one_ulp(got)
            bad = lightcone.compare(
                lightcone.reference(lane.scheme, steps, offset), got)
            failures.extend(f"{lane.scheme}: {part} differs from the "
                            f"{lightcone.REFERENCE_BACKEND} reference"
                            for part in bad)

        if not lane.bulk:
            with rec.span("warmup"):
                lane.advance(steps - 1)
            with rec.span("verify"):
                verify()
        started = now()
        while True:
            rec.enabled = cfg["trace"] and len(lane.blocks) % 2 == 0
            block_started = now()
            with rec.span(f"block[{index}]"):
                times = lane.advance(block_ops)
            ended = now()
            lane.blocks.append((sum(times) / block_ops, rec.enabled))
            op_times += times
            index += 1
            if lane.bulk and len(lane.blocks) == 1:
                # a bulk segment starts from nothing every time, so the
                # first timed one doubles as the walk to the checked step
                with rec.span("verify"):
                    verify()
            if not keep_going(ended - started, ended - block_started,
                              cfg["seconds"] / len(lanes), len(lane.blocks),
                              min_blocks):
                break
        rec.enabled = bool(cfg["trace"])
        if not np.isfinite(lane.sim.curr).all():
            failures.append(f"{lane.scheme}: final field is not finite")
        out["attempted"] = out.get("attempted", 0) + lane.sim.time_step
        if cfg["trace"]:
            layers.update(_lane_layers(cfg, lane, rec))
            layers["lift.arena_slot_bytes"] = max(
                layers["lift.arena_slot_bytes"],
                kernel_cache_stats()["arena"]["nbytes"])
        lane.sim = None

    def best(traced=None) -> float:
        """Mean over lanes of the best block, in ms (optionally only the
        blocks recorded with tracing on / off)."""
        per_lane = [best_block(v for v, t in lane.blocks
                               if traced is None or t == traced)
                    for lane in lanes]
        return 1e3 * sum(per_lane) / len(per_lane)

    out["op_ms"] = best()
    out["op_diag_ms"] = diagnostics([t * 1e3 for t in op_times])
    out["blocks"] = index
    out["voxel_updates_per_op"] = dims[0] * dims[1] * dims[2]
    out["first_op_s"] = {lane.scheme: lane.first_op_s for lane in lanes}
    if cfg["trace"]:
        disk = kernel_cache_stats()["loops_disk"]
        layers.update({
            "trace.op_ms": best(traced=True),
            "trace.untraced_op_ms": best(traced=False),
            "acoustics.import_s": out["import_s"],
            "acoustics.topology_s": out["topology_s"],
            "acoustics.sim_ctor_s": out["sim_ctor_s"],
            "lift.first_call_extra_s":
                lanes[0].first_op_s
                - best_block(v for v, _t in lanes[0].blocks),
            "lift.cc_cache_hits": disk["hits"],
            "lift.cc_cache_misses": disk["misses"],
        })
        out["layers"] = layers

    out["shm_leaked"] = len(_shm_segments() - shm_before)
    if out["shm_leaked"]:
        failures.append(f"{out['shm_leaked']} shared-memory segment(s) "
                        "left in /dev/shm")
    out["rss_self_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    out["rss_children_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    out["failures"] = failures
    return out


# -- prime -------------------------------------------------------------------

def run_prime(cfg) -> dict:
    """Two ops of every lane on the tiny room; the wall time (import
    excluded) is the artifact cache's cold-build or warm-load cost."""
    import repro  # noqa: F401
    from repro.lift.codegen.loops import loops_disk_cache_stats
    spec = WORKLOADS[cfg["workload"]]
    t0 = now()
    for scheme, kwargs in spec["lanes"]:
        lane = Lane(scheme, kwargs, spec["bulk"])
        lane.build(SMOKE_DIMS)
        lane.sim.add_impulse("center")
        lane.advance(2)
    stats = loops_disk_cache_stats()
    return {"wall_s": now() - t0, "hits": stats["hits"],
            "misses": stats["misses"], "entries": stats["entries"]}


# -- gateway_small -----------------------------------------------------------

class GatewayRun:
    """The gateway child plus its one closed-loop client."""

    def __init__(self, cfg, rec):
        self.cfg = cfg
        self.rec = rec
        self.proc = None
        self.client = None
        self.ops = 0
        self.failures: list[str] = []
        self.http_2xx = 0
        self.http_429 = 0
        self.samples: dict[int, dict] = {}
        self.rss_at: tuple[float, float] | None = None
        self.ready_file = os.path.join(cfg["tmp"], "gateway-ready.json")

    def boot(self) -> None:
        from repro.net import GatewayClient
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "gateway_proc.py"),
             os.path.join(self.cfg["tmp"], "durable"),
             os.environ["REPRO_LOOPS_CACHE_DIR"], self.ready_file])
        deadline = now() + 60.0
        while not os.path.exists(self.ready_file):
            if self.proc.poll() is not None:
                raise RuntimeError("gateway child exited with code "
                                   f"{self.proc.returncode} before ready")
            if now() > deadline:
                raise RuntimeError("gateway child not ready within 60 s")
            time.sleep(0.005)
        with open(self.ready_file, encoding="utf-8") as f:
            url = json.load(f)["url"]
        self.client = GatewayClient(url, api_key="key-bench")

    def op(self) -> dict | None:
        """One job round trip: ``POST`` → WebSocket events until the
        final one → npz fetch.  Returns its timings, or ``None`` after
        recording the failure."""
        index = self.ops
        self.ops += 1
        request = gateway_request(index, self.cfg["seed"])
        rec = self.rec
        try:
            with rec.span("op"):
                t0 = now()
                with rec.span("submit"):
                    status, payload = self.client.submit(request)
                t1 = now()
                if status == 429:
                    self.http_429 += 1
                if status not in (200, 202):
                    raise RuntimeError(f"POST answered {status}: {payload}")
                self.http_2xx += 1
                with rec.span("wait"):
                    events = self.client.events(payload["job_id"],
                                                timeout=60.0)
                t2 = now()
                final = events[-1] if events else {}
                if not final.get("final") or final.get("state") != "DONE":
                    raise RuntimeError(f"job ended {final.get('state')!r}, "
                                       f"not DONE: {final.get('error')}")
                with rec.span("fetch"):
                    arrays = self.client.result_arrays(payload["job_id"])
                t3 = now()
                self.http_2xx += 1
        except Exception as exc:          # noqa: BLE001 - a failed op, counted
            self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            return None
        if index < GATEWAY_VERIFIED:
            self.samples[index] = arrays
        if self.ops == GATEWAY_RSS_AT[self.cfg["smoke"]]:
            pid = self.proc.pid
            self.rss_at = (procs.peak_rss_mb(pid),
                           max(map(procs.peak_rss_mb, procs.children(pid)),
                               default=0.0))
        return {"total": t3 - t0, "submit": t1 - t0, "wait": t2 - t1,
                "fetch": t3 - t2, "server_ms": final.get("latency_ms", 0.0),
                "events": len(events)}

    def verify(self) -> None:
        """Bit-compare the sampled npz results (4 per scheme) with
        in-process ``Session().simulate`` of the same request."""
        import numpy as np
        from repro.api import Session
        session = Session()
        for index, arrays in sorted(self.samples.items()):
            req = gateway_request(index, self.cfg["seed"])
            want = session.simulate(
                req.room, req.steps, scheme=req.scheme, impulse=req.impulse,
                receivers=dict(req.receiver_items()))
            if not (np.array_equal(arrays["field"], want.field)
                    and np.array_equal(arrays["recv:mic"],
                                       want.receivers["mic"])):
                self.failures.append(
                    f"op {index}: npz result differs from in-process "
                    "Session().simulate")

    def shutdown(self) -> dict:
        """SIGTERM the gateway, wait for it and its worker to be gone."""
        usage = {}
        if self.proc is None:
            return usage
        workers = procs.children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self.failures.append("gateway child ignored SIGTERM for 30 s")
        deadline = now() + 5.0
        while any(map(procs.alive, workers)) and now() < deadline:
            time.sleep(0.01)
        for pid in filter(procs.alive, workers):
            self.failures.append(f"gateway worker {pid} outlived the gateway")
            os.kill(pid, signal.SIGKILL)
        if self.proc.returncode != 0:
            self.failures.append(
                f"gateway child exited with code {self.proc.returncode}")
        try:
            with open(self.ready_file + ".rusage", encoding="utf-8") as f:
                usage = json.load(f)
        except (OSError, ValueError):
            self.failures.append("gateway child left no rusage record")
        return usage


def run_gateway(cfg, rec) -> dict:
    spec = WORKLOADS["gateway_small"]
    run = GatewayRun(cfg, rec)
    out = {}
    try:
        with rec.span("setup"):
            with rec.span("import"):
                import repro.net  # noqa: F401
            out["import_s"] = now() - _T0
            with rec.span("gateway_boot"):
                run.boot()
            with rec.span("first_op"):
                first = run.op()
        out["setup_s"] = now() - _T0
        out.update(_host_facts())
        if cfg["role"] == "setup":
            return out

        # the verified samples are the first ops, so smoke runs that many
        warmup = GATEWAY_VERIFIED if cfg["smoke"] else GATEWAY_WARMUP
        with rec.span("warmup"):
            for _ in range(warmup - 1):
                run.op()

        block_ops = spec["block_ops"]
        min_blocks = _min_blocks(spec, cfg)
        blocks: list[tuple[float, bool, list]] = []
        op_times: list[float] = []
        started = now()
        while True:
            rec.enabled = cfg["trace"] and len(blocks) % 2 == 0
            block_started = now()
            with rec.span(f"block[{len(blocks)}]"):
                ops = [run.op() for _ in range(block_ops)]
            ended = now()
            if None not in ops:           # a block with a failed op is
                blocks.append(            # not a timing sample
                    ((ended - block_started) / block_ops, rec.enabled, ops))
                op_times += [o["total"] for o in ops]
            if run.failures or not keep_going(
                    ended - started, ended - block_started, cfg["seconds"],
                    len(blocks), min_blocks):
                break
        rec.enabled = bool(cfg["trace"])
        with rec.span("verify"):
            run.verify()

        if blocks:
            out["op_ms"] = 1e3 * best_block(v for v, _t, _o in blocks)
            out["op_diag_ms"] = diagnostics([t * 1e3 for t in op_times])
        out["blocks"] = len(blocks)
        out["voxel_updates_per_op"] = GATEWAY_STEPS * 48 * 32 * 24

        if cfg["trace"] and blocks:
            health = run.client.healthz()
            _v, _t, ops = min(blocks, key=lambda b: b[0])

            def mean_ms(key):
                return 1e3 * sum(o[key] for o in ops) / len(ops)

            floor = []
            for _ in range(20):
                t0 = now()
                run.client.healthz()
                floor.append(now() - t0)
            replays = []
            for index in range(GATEWAY_VERIFIED):
                t0 = now()
                with rec.span("replay"):
                    status, dup = run.client.submit(
                        gateway_request(index, cfg["seed"]))
                    if status != 200 or not dup.get("duplicate"):
                        run.failures.append(
                            f"replay {index}: expected a duplicate answer, "
                            f"got {status} {dup}")
                        continue
                    run.client.result_arrays(dup["job_id"])
                replays.append(now() - t0)
            out["layers"] = {
                "trace.op_ms": 1e3 * best_block(
                    v for v, t, _o in blocks if t),
                "trace.untraced_op_ms": 1e3 * best_block(
                    v for v, t, _o in blocks if not t),
                "acoustics.import_s": out["import_s"],
                "lift.first_call_extra_s":
                    (first["total"] if first else 0.0)
                    - best_block(v for v, _t, _o in blocks),
                "net.submit_ms": mean_ms("submit"),
                "net.exec_wait_ms": mean_ms("wait"),
                "net.fetch_ms": mean_ms("fetch"),
                "net.server_latency_ms":
                    sum(o["server_ms"] for o in ops) / len(ops),
                "net.ws_events_per_job":
                    sum(o["events"] for o in ops) / len(ops),
                "net.healthz_ms": 1e3 * min(floor),
                "net.replay_ms": 1e3 * min(replays) if replays else 0.0,
                "net.http_2xx": run.http_2xx,
                "net.http_429": run.http_429,
                "net.tenant_queued_after":
                    health["gateway"]["tenants"]["bench"]["queued"],
            }
    finally:
        usage = run.shutdown()
    # peak RSS at the fixed job count; a run too slow to get there falls
    # back to the teardown reading
    gateway_mb, worker_mb = run.rss_at or (
        usage.get("gateway_maxrss_kb", 0) / 1024.0,
        usage.get("worker_maxrss_kb", 0) / 1024.0)
    out["rss_self_mb"] = gateway_mb
    out["rss_children_mb"] = worker_mb
    if "layers" in out:
        out["layers"]["net.gateway_rss_mb"] = gateway_mb
        out["layers"]["net.worker_rss_mb"] = worker_mb
    out["attempted"] = run.ops
    out["failures"] = run.failures
    return out


# -- entry -------------------------------------------------------------------

def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as f:
        cfg = json.load(f)
    from spans import NullRecorder, Recorder, chrome_trace, self_times
    rec = Recorder(cfg["trace_id"]) if cfg["trace"] else NullRecorder()
    try:
        if cfg["role"] == "prime":
            result = run_prime(cfg)
        elif cfg["role"] == "probe":
            import probes
            result = probes.run(cfg)
        elif cfg["workload"] == "gateway_small":
            result = run_gateway(cfg, rec)
        else:
            result = run_room(cfg, rec)
        if cfg["trace"] and cfg["role"] == "timed":
            from repro.obs import validate_chrome_trace
            doc = chrome_trace(rec.spans, rec.trace_id,
                               f"perf ledger: {cfg['workload']}")
            problems = validate_chrome_trace(doc)
            result.setdefault("failures", []).extend(
                f"trace: {p}" for p in problems)
            result["self_times"] = self_times(rec.spans)
            with open(cfg["trace_path"], "w", encoding="utf-8") as f:
                json.dump(doc, f)
    except Exception:                     # noqa: BLE001 - reported, not lost
        result = {"error": traceback.format_exc()}
    with open(cfg["result_path"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
