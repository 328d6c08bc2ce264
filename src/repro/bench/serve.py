"""Serving-throughput benchmark: jobs/sec and latency percentiles.

Two tiers:

* :func:`serve_benchmark` drives an in-process
  :class:`repro.serve.SimulationService` with the deterministic mixed
  workload of :func:`repro.serve.chaos.build_workload` — schemes and
  precisions cycled, priorities mixed, duplicate requests so the result
  cache is exercised — and reports the service's modelled-clock
  statistics.  Because every duration in the service is modelled, the
  whole artifact is bit-reproducible run to run; CI uploads the JSON and
  a regression shows up as a diff, not noise.  ``python -m repro.serve``
  (the serving smoke) is this function with its ``--faults``,
  ``--verify`` and ``--trace`` flags.

* :func:`loadgen_benchmark` is the **open-loop load generator** against
  the real :class:`repro.net.Gateway`: Poisson arrivals (seeded
  exponential inter-arrival times) from several tenants over real HTTP,
  real worker processes, real wallclock.  It reports p50/p95/p99
  server-side latency, goodput (completed jobs per wallclock second),
  and the admission-control refusal counts — under overload the
  interesting number is how much got *refused* (HTTP 429), not just how
  fast the rest finished.  Wallclock numbers are machine-dependent;
  ``BENCH_9.json`` records one reference run.
"""

from __future__ import annotations

import io
import random
import time

from ..obs import window_percentile
from ..serve import SimulationService


def serve_benchmark(*, jobs: int = 12, steps: int = 4,
                    pool: str = "TitanBlack:2", faults: bool = False,
                    verify: bool = False, trace_path=None) -> dict:
    """Run the workload through a fresh service; returns the artifact.

    The artifact is a plain JSON-able dict: the service's
    :meth:`~repro.serve.SimulationService.stats` (pool, per-state
    counts, ``jobs_per_sec``, wait/latency percentiles, batch and cache
    counters) plus a ``per_job`` table of every job's terminal state and
    modelled accounting, and the ``errors`` of the drive (non-terminal
    or failed jobs and, with ``verify``, every serial mismatch).
    ``verified`` is true iff ``verify`` ran and ``errors`` is empty.

    ``faults`` injects seeded transient faults into a resilient service,
    so jobs still terminate; ``trace_path`` writes the service's Chrome
    trace (per-job lanes keyed by trace id).

    The process-wide autotune memo is cleared first so the artifact's
    cache counters describe a cold start — identical whether the
    benchmark runs in a fresh process (CI) or after other work.
    """
    from ..gpu import autotune_memo
    from ..serve.chaos import _drive, build_workload
    autotune_memo().clear()
    plan = None
    if faults:
        from ..gpu.faults import FaultPlan, FaultSpec
        plan = FaultPlan([FaultSpec("launch_abort", steps=(2,)),
                          FaultSpec("transfer_fail", rate=0.02)], seed=7)
    svc = SimulationService(devices=pool, resilient=faults, faults=plan,
                            observability=True)
    _, errors = _drive(svc, build_workload(jobs, steps), verify=verify)
    stats = svc.stats()
    # the memo started cold (cleared above), so these are deterministic
    stats["cache"]["compile"].update(
        autotune_hits=svc.compile_cache.autotune.hits,
        autotune_misses=svc.compile_cache.autotune.misses)
    stats["steps_per_job"] = steps
    stats["per_job"] = [
        {"job": h.job_id, "scheme": h.request.scheme,
         "precision": h.request.precision,
         "priority": h.request.priority, "state": h.state,
         "wait_ms": (round(h._result.wait_ms, 6) if h._result else None),
         "latency_ms": (round(h._result.latency_ms, 6)
                        if h._result else None),
         "from_cache": (h._result.from_cache if h._result else None),
         "attempts": h.attempts}
        for h in svc._handles]
    # the service ran observability=True, so the sliding-window series
    # and SLO verdicts are part of the artifact (deterministic: every
    # number is modelled-clock arithmetic)
    stats["timeseries"] = svc.timeseries.snapshot()
    stats["slo"] = {
        "statuses": [s.as_dict() for s in svc.slo.evaluate(svc.now_ms)],
        "alerting": list(svc.slo.alerting()),
    }
    stats["verified"] = verify and not errors
    stats["errors"] = errors
    if trace_path is not None:
        from ..obs import write_chrome_trace
        write_chrome_trace(svc.obs.tracer, trace_path)
    return stats


def loadgen_tenants(n: int, rate: float):
    """``n`` load-test tenants whose combined sustained allowance is
    ~60% of the offered rate — overload by construction, so the token
    buckets visibly engage (429s) once their bursts are spent."""
    from ..net.ratelimit import Tenant
    per = rate / n
    return tuple(
        Tenant(f"lg-{i}", f"key-lg-{i}", rate=max(0.5, per * 0.6),
               burst=4.0, max_concurrent=64, queue_share=0.5)
        for i in range(n))


def loadgen_benchmark(*, rate: float = 40.0, jobs: int = 120,
                      tenants: int = 3, workers: int = 2, steps: int = 4,
                      seed: int = 7, verify: bool = False,
                      url: str | None = None,
                      wait_timeout: float = 600.0) -> dict:
    """Open-loop Poisson load against a real gateway; returns the artifact.

    With ``url=None`` a :class:`repro.net.Gateway` is booted in-process
    (``workers`` OS worker processes, ephemeral port) and torn down at
    the end; pass a URL to load an externally managed gateway instead
    (it must be configured with :func:`loadgen_tenants`).

    Open loop means arrivals do not wait for completions: inter-arrival
    gaps are exponential with mean ``1/rate`` (seeded — the schedule is
    reproducible even though service times are wallclock).  Each
    submission round-robins across ``tenants`` API keys.  ``verify``
    bit-compares every unique finished job against a serial
    :meth:`repro.api.Session.simulate`.
    """
    from ..net import Gateway, GatewayClient
    from ..serve.chaos import build_workload
    tens = loadgen_tenants(tenants, rate)
    gw = None
    if url is None:
        gw = Gateway(workers=workers, port=0, tenants=tens,
                     max_queue=max(16, jobs // 2))
        url = gw.start()
    try:
        clients = [GatewayClient(url, api_key=t.api_key) for t in tens]
        workload = build_workload(jobs, steps)
        rng = random.Random(seed)
        codes: dict[str, int] = {}
        refused: dict[str, int] = {}
        accepted: dict[int, str] = {}      # job id -> fingerprint
        duplicates = 0
        t0 = time.monotonic()
        next_at = 0.0
        for i, req in enumerate(workload):
            next_at += rng.expovariate(rate)
            lag = next_at - (time.monotonic() - t0)
            if lag > 0:
                time.sleep(lag)
            code, payload = clients[i % tenants].submit(req)
            codes[str(code)] = codes.get(str(code), 0) + 1
            if code == 202:
                accepted[payload["job_id"]] = payload["fingerprint"]
            elif code == 200:
                duplicates += 1
                accepted[payload["job_id"]] = payload["fingerprint"]
            elif code == 429:
                reason = payload.get("reason", "unknown")
                refused[reason] = refused.get(reason, 0) + 1
        submit_wall_s = time.monotonic() - t0

        c0 = clients[0]
        finals: dict[int, dict] = {}
        deadline = time.monotonic() + wait_timeout
        for jid in accepted:
            try:
                finals[jid] = c0.wait(
                    jid, timeout=max(0.0, deadline - time.monotonic()),
                    poll=0.05)
            except TimeoutError:
                pass
        wall_s = time.monotonic() - t0
        done = [st for st in finals.values() if st["state"] == "DONE"]
        lat = [st["latency_ms"] for st in done]
        executed_lat = [st["latency_ms"] for st in done
                        if not (st.get("from_cache")
                                or st.get("from_store"))]
        health = c0.healthz()
        artifact = {
            "kind": "gateway_loadgen",
            "offered": {"rate_jobs_per_s": rate, "jobs": jobs,
                        "tenants": tenants, "steps_per_job": steps,
                        "seed": seed},
            "workers": workers,
            "http_codes": codes,
            "refused_429": refused,
            "duplicates": duplicates,
            "accepted": len(accepted),
            "unfinished": len(accepted) - len(finals),
            "done": len(done),
            "failed": len(finals) - len(done),
            "submit_wall_s": round(submit_wall_s, 3),
            "wall_s": round(wall_s, 3),
            "goodput_jobs_per_s": round(len(done) / wall_s, 3)
            if wall_s > 0 else 0.0,
            "latency_ms": {
                "p50": round(window_percentile(lat, 50), 3),
                "p95": round(window_percentile(lat, 95), 3),
                "p99": round(window_percentile(lat, 99), 3)},
            "executed_latency_ms": {
                "p50": round(window_percentile(executed_lat, 50), 3),
                "p95": round(window_percentile(executed_lat, 95), 3),
                "p99": round(window_percentile(executed_lat, 99), 3)},
            "executions": health["executions"],
            "gateway": health["gateway"],
        }
        if verify:
            artifact["verify"] = _verify_loadgen(c0, workload, accepted,
                                                 finals)
        return artifact
    finally:
        if gw is not None:
            gw.stop()


def _verify_loadgen(client, workload, accepted: dict,
                    finals: dict) -> dict:
    """Bit-compare each unique DONE fingerprint to a serial session run."""
    from ..net.chaos import _fetch_results
    from ..serve.chaos import _verify
    by_fp = {accepted[jid]: jid for jid, st in finals.items()
             if st["state"] == "DONE"}
    results = _fetch_results(client, by_fp)
    mismatches = _verify(workload, results)
    return {"checked": len(results), "bit_identical": not mismatches,
            "mismatches": mismatches}


def render_loadgen(stats: dict) -> str:
    """Text rendering of one load-generator artifact."""
    out = io.StringIO()
    o = stats["offered"]
    print(f"Gateway load test — {o['jobs']} jobs at {o['rate_jobs_per_s']}"
          f"/s from {o['tenants']} tenant(s), {stats['workers']} "
          f"worker process(es)", file=out)
    print(f"  http codes   {stats['http_codes']}   "
          f"429 by reason {stats['refused_429']}", file=out)
    print(f"  done {stats['done']}/{stats['accepted']} accepted "
          f"({stats['duplicates']} idempotent duplicates)   "
          f"goodput {stats['goodput_jobs_per_s']}/s over "
          f"{stats['wall_s']}s", file=out)
    lt, xt = stats["latency_ms"], stats["executed_latency_ms"]
    print(f"  latency ms   p50 {lt['p50']:>9.3f}  p95 {lt['p95']:>9.3f}  "
          f"p99 {lt['p99']:>9.3f}", file=out)
    print(f"  executed ms  p50 {xt['p50']:>9.3f}  p95 {xt['p95']:>9.3f}  "
          f"p99 {xt['p99']:>9.3f}", file=out)
    if "verify" in stats:
        v = stats["verify"]
        print(f"  verify       {v['checked']} unique results "
              f"bit-identical to serial: {v['bit_identical']}", file=out)
    return out.getvalue()


def render_serve(scale: int = 1, *, jobs: int = 12, steps: int = 4,
                 pool: str = "TitanBlack:2") -> str:
    """Text rendering of the serving benchmark (``scale`` is accepted
    for renderer-signature uniformity; the rooms are already tiny)."""
    del scale
    stats = serve_benchmark(jobs=jobs, steps=steps, pool=pool)
    out = io.StringIO()
    print(f"Serving throughput — {jobs} mixed jobs x {steps} steps on "
          f"{'+'.join(stats['pool'])} (modelled)", file=out)
    print(f"  jobs/sec {stats['jobs_per_sec']:>10.2f}   "
          f"makespan {stats['makespan_ms']:.4f} ms   "
          f"batches {stats['batches']}", file=out)
    print(f"  wait ms    p50 {stats['wait_ms']['p50']:>8.4f}   "
          f"p95 {stats['wait_ms']['p95']:>8.4f}", file=out)
    print(f"  latency ms p50 {stats['latency_ms']['p50']:>8.4f}   "
          f"p95 {stats['latency_ms']['p95']:>8.4f}", file=out)
    c = stats["cache"]
    print(f"  cache      compile {c['compile']['hits']}/"
          f"{c['compile']['hits'] + c['compile']['misses']} hit   "
          f"result {c['result']['hits']}/"
          f"{c['result']['hits'] + c['result']['misses']} hit   "
          f"autotune {c['compile']['autotune_hits']}/"
          f"{c['compile']['autotune_hits'] + c['compile']['autotune_misses']}"
          f" hit", file=out)
    print(f"{'job':>4} {'scheme':>6} {'prec':>6} {'prio':>4} {'state':>7} "
          f"{'wait ms':>9} {'latency ms':>10}  src", file=out)
    for j in stats["per_job"]:
        src = "cache" if j["from_cache"] else f"run x{j['attempts']}"
        print(f"{j['job']:>4} {j['scheme']:>6} {j['precision']:>6} "
              f"{j['priority']:>4} {j['state']:>7} "
              f"{j['wait_ms']:>9.4f} {j['latency_ms']:>10.4f}  {src}",
              file=out)
    return out.getvalue()
