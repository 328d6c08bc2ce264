"""Per-layer probes of the traced run (the ``probe`` role of child.py).

Each probe times one layer through its public entry point, in a fresh
process, after the timed phase has finished — so neither a warm
in-process cache nor the timed child's memory is in the picture.  A
probe returns ``{metric name: value}``; ``run.py`` merges them into the
ledger.  Like every timing here they are best-of-N, not means.
"""

from __future__ import annotations

import os

from estimator import best_block, block_values
from hostinfo import llc_bytes
from workloads import (GATEWAY_VERIFIED, SMOKE_DIMS, WORKLOADS, Lane,
                       gateway_request, loops_layers, now)


def _best_step_ms(lane: Lane, blocks: int, block_ops: int) -> float:
    """Best block of ``block_ops`` steps out of ``blocks``, after one
    discarded first call and two discarded rotation steps."""
    lane.advance(3)
    return 1e3 * best_block(sum(lane.advance(block_ops)) / block_ops
                            for _ in range(blocks))


def _lowering(scheme: str) -> dict:
    """``compile_numpy(..., steady=True)`` over the kernels of one
    scheme: time per kernel summed, arena op counts per kernel."""
    from repro.acoustics.lift_programs import (fd_mm_boundary, fi_fused_flat,
                                               fi_mm_boundary, volume_kernel)
    from repro.lift.codegen import compile_numpy
    if scheme == "fi":
        kernels = [("fi_fused_flat", fi_fused_flat("double"))]
    else:
        boundary = (("fi_mm_boundary", fi_mm_boundary("double"))
                    if scheme == "fi_mm" else
                    ("fd_mm_boundary", fd_mm_boundary("double", 3)))
        kernels = [("volume_kernel", volume_kernel("double")), boundary]
    out = {"lift.lower_ms": 0.0}
    for label, program in kernels:
        t0 = now()
        nk = compile_numpy(program.kernel, label, steady=True)
        out["lift.lower_ms"] += 1e3 * (now() - t0)
        out[f"lift.arena_ops.{label}"] = len(nk.program.ops)
    return out


def _host_compile_ms(scheme: str) -> float:
    from repro.acoustics.lift_programs import two_kernel_host
    from repro.lift.codegen import compile_host
    hp = two_kernel_host(scheme, "double", 3)
    t0 = now()
    compile_host(hp.program, hp.name)
    return 1e3 * (now() - t0)


def _copy_ceiling(smoke: bool) -> dict:
    """The host's sustainable copy bandwidth, measured in this run with
    a plain ``np.copyto``: each array is four times the last-level cache
    (both sizes are stated in the ledger), bytes moved = read + write."""
    import numpy as np
    llc = llc_bytes()
    nbytes = (8 << 20) if smoke else max(4 * llc, 256 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(4):                    # the first pass faults ``dst`` in
        t0 = now()
        np.copyto(dst, src)
        best = min(best, now() - t0)
    return {"host.copy_gbs": 2 * src.nbytes / best / 1e9,
            "host.copy_array_mb": src.nbytes / 1e6,
            "host.llc_mb": llc / 1e6}


def probe_kernels(cfg, dims) -> dict:
    out = {"lift.lower_ms": 0.0}
    for scheme in ("fi", "fi_mm", "fd_mm"):
        part = _lowering(scheme)
        out["lift.lower_ms"] += part.pop("lift.lower_ms")
        out.update(part)
    out.update(_copy_ceiling(cfg["smoke"]))
    steady = Lane("fi_mm", {"backend": "numpy-steady"}, bulk=False)
    steady.build(dims)
    steady.sim.add_impulse("center")
    out["steady.fi_mm.step_ms"] = _best_step_ms(steady, blocks=2,
                                                block_ops=2)
    steady.sim = None
    # the schemes the timed phase leaves out (it gives its whole window to
    # fd_mm); short windows, so read them as per-layer numbers only
    for scheme in ("fi_mm", "fi"):
        raw = Lane(scheme, {"backend": "numba"}, bulk=False)
        raw.build(dims)
        raw.sim.add_impulse("center")
        out.update(loops_layers(raw, _best_step_ms(raw, blocks=40,
                                                   block_ops=1)))
        raw.sim = None
    return out


def probe_vgpu(cfg, dims) -> dict:
    out = _lowering("fd_mm")
    out["lift.host_compile_ms"] = _host_compile_ms("fd_mm")
    raw = Lane("fd_mm", {"backend": "numba"}, bulk=False)
    raw.build(dims)
    raw.sim.add_impulse("center")
    out["loops.fd_mm.step_ms"] = _best_step_ms(raw, blocks=4, block_ops=5)
    return out


def probe_shards2(cfg, dims) -> dict:
    out = _lowering("fi_mm")
    out["lift.host_compile_ms"] = _host_compile_ms("fi_mm")
    # the in-process executor ParallelMultiGPU falls back to
    serial = Lane("fi_mm", {"backend": "virtual_gpu",
                            "devices": "TitanBlack:2"}, bulk=False)
    serial.build(dims)
    serial.sim.add_impulse("center")
    out["gpu.multi2.step_ms"] = _best_step_ms(serial, blocks=2, block_ops=2)
    return out


def probe_gateway(cfg, dims) -> dict:
    """The same job mix without the network: ``Session().simulate``
    (api), a durable in-process ``SimulationService`` (serve), and the
    result store's put/get on one of its results."""
    from repro.api import Session
    from repro.serve import ResultStore, SimulationService
    jobs = 12 if cfg["smoke"] else 48
    requests = [gateway_request(i, cfg["seed"]) for i in range(jobs)]
    block = GATEWAY_VERIFIED

    session = Session()
    times = []
    for req in requests:
        t0 = now()
        session.simulate(req.room, req.steps, scheme=req.scheme,
                         impulse=req.impulse,
                         receivers=dict(req.receiver_items()))
        times.append(now() - t0)
    out = {"api.simulate_ms": 1e3 * best_block(block_values(times, block))}

    svc = SimulationService(durable_dir=os.path.join(cfg["tmp"], "inproc"))
    times = []
    results = []
    for req in requests:
        t0 = now()
        results.append(svc.submit(req).result())
        times.append(now() - t0)
    stats = svc.stats()
    svc.close()
    out["serve.inproc_job_ms"] = 1e3 * best_block(
        block_values(times, block))
    out["serve.journal_bytes_per_job"] = (
        stats["durability"]["journal_bytes"] / jobs)
    out["serve.compile_cache_hits"] = stats["cache"]["compile"]["hits"]
    out["serve.compile_cache_misses"] = stats["cache"]["compile"]["misses"]

    store = ResultStore(os.path.join(cfg["tmp"], "store-probe"))
    puts, gets = [], []
    for i, result in enumerate(results[:block]):
        key = f"{i:040x}"
        t0 = now()
        store.put(key, result)
        t1 = now()
        store.get(key)
        puts.append(t1 - t0)
        gets.append(now() - t1)
    out["serve.store_put_ms"] = 1e3 * min(puts)
    out["serve.store_get_ms"] = 1e3 * min(gets)
    stored = store.stats()
    out["serve.store_bytes_per_job"] = stored["bytes"] / stored["entries"]
    return out


_PROBES = {"kernels_302": probe_kernels, "vgpu_302": probe_vgpu,
           "shards2_151": probe_shards2, "gateway_small": probe_gateway}


def run(cfg) -> dict:
    dims = (SMOKE_DIMS if cfg["smoke"]
            else WORKLOADS[cfg["workload"]]["dims"])
    return {"layers": _PROBES[cfg["workload"]](cfg, dims)}
