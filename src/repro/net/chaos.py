"""The ``gateway_kill`` chaos scenario: SIGKILL the serving process.

PR 6's harness killed a *modelled* process inside one interpreter; this
one kills the real thing.  A gateway subprocess (``python -m repro.net``
on a durable directory) serves the deterministic chaos workload; once
part of it is DONE, the process is SIGKILLed mid-run — no drain, no
atexit, exactly the crash the write-ahead journal exists for.  A second
incarnation is launched on the same directory and the whole workload is
resubmitted verbatim.

Assertions:

1. **Idempotency** — every resubmitted fingerprint answers with a job
   id and reaches DONE; duplicates inside one incarnation return the
   original job id (``duplicate: true``).
2. **Zero re-execution** — no fingerprint that was DONE before the kill
   is executed by the second incarnation: its status shows
   ``executed_in_process: false`` and the healthz recovery counters
   account for it ``from_store``.
3. **Bit-identity** (``--verify``) — every unique job's result arrays
   (npz route) equal an uninterrupted serial
   :meth:`repro.api.Session.simulate`, array for array.

Usage::

    python -m repro.net chaos --jobs 8 --workers 2 --verify \\
        --json chaos-gateway.json
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

from ..serve.chaos import build_workload
from ..serve.job import verify_against_serial
from .client import GatewayClient

__all__ = ["run_gateway_chaos"]

_TERMINAL = ("DONE", "FAILED", "EVICTED")


def _repro_env() -> dict:
    """A subprocess environment that can ``import repro``."""
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def launch_gateway(durable_dir: str, *, workers: int = 2,
                   checkpoint_every: int = 3, max_queue: int = 64,
                   extra_args=(), timeout: float = 90.0):
    """Start ``python -m repro.net`` as a subprocess; wait until ready.

    Returns ``(process, base_url)``.  The ready file is how the child
    reports its ephemeral port.
    """
    ready = os.path.join(durable_dir, f"ready-{os.getpid()}-"
                         f"{time.monotonic_ns()}.json")
    cmd = [sys.executable, "-m", "repro.net", "serve",
           "--port", "0", "--workers", str(workers),
           "--durable-dir", durable_dir,
           "--checkpoint-every", str(checkpoint_every),
           "--max-queue", str(max_queue),
           "--ready-file", ready, *extra_args]
    proc = subprocess.Popen(cmd, env=_repro_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            err = proc.stderr.read().decode("utf-8", "replace")
            raise RuntimeError(
                f"gateway exited {proc.returncode} before ready:\n{err}")
        if os.path.exists(ready):
            try:
                with open(ready, encoding="utf-8") as f:
                    info = json.load(f)
                os.remove(ready)
                return proc, info["url"]
            except (ValueError, KeyError):
                pass                       # torn write; poll again
        time.sleep(0.05)
    proc.kill()
    raise TimeoutError(f"gateway not ready within {timeout}s")


def _wait_terminal(client: GatewayClient, job_ids, timeout: float = 180.0):
    """Block until every job id is terminal; returns {job_id: status}."""
    deadline = time.monotonic() + timeout
    statuses = {}
    pending = list(job_ids)
    while pending and time.monotonic() < deadline:
        still = []
        for jid in pending:
            st = client.status(jid)
            if st["state"] in _TERMINAL:
                statuses[jid] = st
            else:
                still.append(jid)
        pending = still
        if pending:
            time.sleep(0.05)
    if pending:
        raise TimeoutError(f"jobs {pending} not terminal after {timeout}s")
    return statuses


def run_gateway_chaos(*, jobs: int = 8, workers: int = 2, steps: int = 12,
                      checkpoint_every: int = 3, durable_dir=None,
                      verify: bool = False, api_key: str = "key-alpha",
                      kill_after_done: int | None = None) -> dict:
    """Kill a real gateway mid-run; recover; assert zero re-execution.

    Returns a report dict whose ``errors`` list is empty iff every
    assertion held.
    """
    own_dir = durable_dir is None
    if own_dir:
        durable_dir = tempfile.mkdtemp(prefix="repro-gw-chaos-")
    workload = build_workload(jobs, steps)
    want_done = (kill_after_done if kill_after_done is not None
                 else max(1, jobs // 3))
    errors: list[str] = []
    report: dict = {"scenario": "gateway_kill", "jobs": jobs,
                    "workers": workers, "steps": steps,
                    "durable_dir": durable_dir, "errors": errors}

    # -- incarnation 1: serve until part of the workload is DONE, then die
    proc, url = launch_gateway(durable_dir, workers=workers,
                               checkpoint_every=checkpoint_every)
    client = GatewayClient(url, api_key=api_key)
    submitted = [client.submit_ok(req) for req in workload]
    job_of = {s["fingerprint"]: s["job_id"] for s in submitted}

    # in-incarnation idempotency: a duplicate POST answers with the
    # original job id and never enqueues a second job
    dup_status, dup = client.submit(workload[0])
    fp0 = workload[0].fingerprint()
    if not (dup_status == 200 and dup.get("duplicate")
            and dup["job_id"] == job_of[fp0]):
        errors.append(
            f"duplicate POST broke idempotency: {dup_status} {dup}")

    done_before: set[str] = set()
    deadline = time.monotonic() + 120.0
    while len(done_before) < want_done and time.monotonic() < deadline:
        for fp, jid in job_of.items():
            if fp in done_before:
                continue
            if client.status(jid)["state"] == "DONE":
                done_before.add(fp)
        time.sleep(0.02)
    report["done_before_kill"] = len(done_before)
    if not done_before:
        errors.append("nothing finished before the kill window")
    os.kill(proc.pid, signal.SIGKILL)     # the chaos: no drain, no flush
    proc.wait(timeout=30)
    report["killed_pid"] = proc.pid

    # -- incarnation 2: same directory, resubmit everything
    proc2, url2 = launch_gateway(durable_dir, workers=workers,
                                 checkpoint_every=checkpoint_every)
    try:
        client2 = GatewayClient(url2, api_key=api_key)
        health = client2.healthz()
        report["recovered"] = health["recovered"]
        if health["recovered"]["from_store"] < len(done_before):
            errors.append(
                f"recovery found {health['recovered']['from_store']} "
                f"stored results, expected >= {len(done_before)}")
        resubmitted = [client2.submit_ok(req) for req in workload]
        job_of2 = {s["fingerprint"]: s["job_id"] for s in resubmitted}
        finals = _wait_terminal(client2, set(job_of2.values()))
        by_fp = {st["fingerprint"]: st for st in finals.values()}
        for fp, st in by_fp.items():
            if st["state"] != "DONE":
                errors.append(f"job {st['job_id']} ({fp[:12]}) ended "
                              f"{st['state']}: {st.get('error')}")
        for fp in done_before:
            st = by_fp.get(fp)
            if st is None:
                errors.append(f"pre-kill job {fp[:12]} missing after "
                              "recovery")
                continue
            # the zero-re-execution assertion: answered from the store,
            # never run by this incarnation's workers
            if st.get("executed_in_process"):
                errors.append(f"pre-kill DONE job {fp[:12]} was "
                              "re-executed after recovery")
            if not (st.get("from_cache") or st.get("from_store")):
                errors.append(f"pre-kill DONE job {fp[:12]} not served "
                              "from cache/store after recovery")
        health2 = client2.healthz()
        report["executions_after_recovery"] = health2["executions"]
        report["final_states"] = sorted(
            (fp[:12], st["state"]) for fp, st in by_fp.items())

        if verify:
            mismatches = []
            for fp, req in {r.fingerprint(): r for r in workload}.items():
                arrays = client2.result_arrays(job_of2[fp])
                mismatches += verify_against_serial(
                    req, arrays["field"],
                    {k[5:]: v for k, v in arrays.items()
                     if k.startswith("recv:")})
            report["verified"] = len(workload) - len(mismatches)
            errors.extend(mismatches)
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=10)
    report["ok"] = not errors
    return report
