"""The gateway: asyncio HTTP/WebSocket front-end over the service.

One :class:`Gateway` owns

* a **durable** :class:`~repro.serve.SimulationService` as its state
  keeper — admission (validation, queue bound), the write-ahead
  journal, the content-addressed result store, result caching and
  crash recovery are all the PR-6 machinery, unchanged.  What the
  gateway replaces is the *execution* half: instead of the cooperative
  in-process ``drain()`` loop, a dispatcher ships queued jobs to
* a :class:`~repro.net.pool.WorkerPool` of real OS worker processes,
  so wallclock throughput scales with cores, and
* an asyncio server exposing the whole thing over HTTP + WebSocket
  with per-tenant admission control (:mod:`~repro.net.ratelimit`).

The fingerprint (:meth:`~repro.serve.SubmitRequest.fingerprint`) is the
idempotency key at every layer: a duplicate ``POST /v1/jobs`` returns
the original job id (HTTP 200, ``duplicate: true``) without touching
the queue; two distinct jobs that hash alike share one execution; and
after a crash, :meth:`~repro.serve.SimulationService.recover` replays
the journal so resubmitted fingerprints answer from the store with
zero re-execution.

Threading model: all service mutation happens on the asyncio loop
thread (request handlers + worker messages marshalled in via
``call_soon_threadsafe``); a pump thread drains the worker result
queue; ``GET /healthz`` uses the lock-protected
:meth:`~repro.serve.SimulationService.health` snapshot.  The gateway
clock is **wallclock** milliseconds since boot — serving real sockets
means modelled time and real time finally meet, and the service clock
is simply kept monotone against it.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import signal
import threading
import time
from collections import deque
from dataclasses import replace

import numpy as np

from ..obs import prometheus_text
from ..serve import (InvalidRequest, JobHandle, JobResult, QueueFull,
                     ResultCache, SimulationService)
from ..serve.journal import decode_request
from .http import (HttpError, Request, Response, WebSocket, read_request)
from .pool import WorkerPool
from .ratelimit import AdmissionController, default_tenants

__all__ = ["Gateway"]

_JOB_ROUTE = re.compile(r"^/v1/jobs/(\d+)(/result|/events)?$")


class _Subscriber:
    """One WebSocket subscriber's bounded event buffer.

    The old fan-out used an unbounded ``asyncio.Queue``: a stalled
    reader watching a long job accumulated every ``progress`` event in
    gateway memory.  Three rules bound it:

    * **coalesce** — a ``progress`` payload replaces a still-queued
      ``progress`` payload (a slow reader sees the newest step count,
      not a replay of every intermediate one);
    * **bound** — at most ``limit`` payloads wait; state transitions
      are few (QUEUED/RUNNING/DONE plus ``started``), so the bound is
      only ever tested by pathological readers;
    * **drop-with-resync** — on overflow the backlog is discarded
      wholesale and the buffer flagged: the consumer re-sends a fresh
      authoritative snapshot before resuming live events, so a slow
      consumer falls behind in *time*, never in *truth*.

    Single-threaded by construction: every ``push`` happens on the
    asyncio loop thread (worker messages arrive via
    ``call_soon_threadsafe``), so a plain deque + Event suffice.
    """

    __slots__ = ("limit", "items", "wake", "resync", "coalesced",
                 "dropped")

    def __init__(self, limit: int):
        self.limit = max(2, int(limit))
        self.items: "deque[dict]" = deque()
        self.wake = asyncio.Event()
        self.resync = False
        self.coalesced = 0
        self.dropped = 0

    def push(self, payload: dict) -> None:
        if (payload.get("event") == "progress" and self.items
                and self.items[-1].get("event") == "progress"):
            self.items[-1] = payload
            self.coalesced += 1
        elif len(self.items) >= self.limit:
            self.dropped += len(self.items)
            self.items.clear()
            self.resync = True
            self.items.append(payload)
        else:
            self.items.append(payload)
        self.wake.set()

    async def get(self) -> tuple[bool, dict]:
        """Next payload, preceded by whether a resync is owed."""
        while not self.items:
            self.wake.clear()
            await self.wake.wait()
        owed, self.resync = self.resync, False
        return owed, self.items.popleft()


class Gateway:
    """Serve a :class:`SimulationService` over HTTP with worker processes.

    ``durable_dir`` makes the journal/store the crash boundary (and is
    how the E2E kill test recovers with zero re-execution); without it
    the gateway still serves, but a crash loses unfinished jobs.
    ``tenants`` is an iterable of :class:`~repro.net.ratelimit.Tenant`
    (default: the three demo tenants).  ``port=0`` binds an ephemeral
    port (the resolved one is in :attr:`url` after start).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8080,
                 workers: int = 2, devices=None, durable_dir=None,
                 tenants=None, max_queue: int = 256,
                 checkpoint_every: int = 0, job_attempts: int = 2,
                 resilient: bool = False, drain_grace_s: float = 30.0,
                 loops_cache_dir: str | None = None,
                 ready_file: str | None = None,
                 ws_queue_limit: int = 64) -> None:
        self.host = host
        self.port = port
        self.drain_grace_s = drain_grace_s
        self.ready_file = ready_file
        kwargs = dict(devices=devices, observability=True,
                      max_queue=max_queue, job_attempts=job_attempts,
                      resilient=resilient,
                      checkpoint_every=checkpoint_every)
        if durable_dir is not None:
            self.svc = SimulationService.recover(durable_dir, **kwargs)
        else:
            self.svc = SimulationService(**kwargs)
        self.admission = AdmissionController(tenants or default_tenants())
        self.pool = WorkerPool(
            workers, devices=devices, resilient=resilient,
            job_attempts=job_attempts, loops_cache_dir=loops_cache_dir)
        self.checkpoint_every = checkpoint_every
        # gateway-side indexes over the service's handles
        self._handle_of: dict[int, JobHandle] = {}
        self._fp_job: dict[str, int] = {}      # fingerprint -> first job id
        self._tenant_of: dict[int, str] = {}
        self._inflight: dict[str, list[JobHandle]] = {}
        self._dispatch_ms: dict[str, float] = {}
        self._worker_task: dict[int, str] = {}  # worker id -> fingerprint
        self._executed: set[str] = set(self.svc.executed_fingerprints)
        self._subscribers: dict[int, set[_Subscriber]] = {}
        self.ws_queue_limit = ws_queue_limit
        self.draining = False
        self._t0 = time.monotonic()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._pump: threading.Thread | None = None
        self._stopping = False
        self._work: asyncio.Event | None = None
        self._finished: asyncio.Event | None = None
        self._tasks: list[asyncio.Task] = []
        self._boot_error: BaseException | None = None
        # index whatever recovery rebuilt (queued handles will be
        # dispatched by the loop; tenant attribution is lost across a
        # crash — the journal stores requests, not API keys — so
        # recovered jobs are exempt from quota accounting)
        for h in self.svc._handles:
            self._handle_of[h.job_id] = h
            self._fp_job.setdefault(h.request.fingerprint(), h.job_id)

    # -- clocks ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def _sync_clock(self) -> float:
        now = self._now_ms()
        self.svc.now_ms = max(self.svc.now_ms, now)
        return now

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> str:
        """Run the gateway on a background thread; returns the base URL."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,), daemon=True,
            name="repro-net-gateway")
        self._thread.start()
        if not ready.wait(timeout=60.0):
            raise RuntimeError("gateway failed to start within 60s")
        if self._boot_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._boot_error}")
        return self.url

    def _thread_main(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._main(ready=ready, install_signals=False))
        except BaseException as exc:     # noqa: BLE001 - surfaced to start()
            self._boot_error = exc
            ready.set()

    def serve_forever(self) -> None:
        """Run in the calling thread until SIGTERM/SIGINT drains us."""
        asyncio.run(self._main(install_signals=True))

    async def _main(self, ready: threading.Event | None = None,
                    install_signals: bool = False) -> None:
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._finished = asyncio.Event()
        self.pool.start()
        self._pump = threading.Thread(target=self._pump_main, daemon=True,
                                      name="repro-net-pump")
        self._pump.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain()))
        self._tasks = [
            asyncio.ensure_future(self._dispatch_loop()),
            asyncio.ensure_future(self._reap_loop()),
        ]
        self.svc.flight.record("gateway_start", self._now_ms(),
                               workers=self.pool.size, url=self.url)
        if self.ready_file:
            # atomic write: the chaos harness polls for this file
            import os
            tmp = self.ready_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump({"url": self.url, "pid": os.getpid()}, f)
            os.replace(tmp, self.ready_file)
        if ready is not None:
            ready.set()
        await self._finished.wait()

    async def drain(self, grace_s: float | None = None) -> None:
        """Graceful shutdown: refuse new jobs, finish the backlog, stop.

        Everything still unfinished at the grace deadline stays in the
        journal, so the next incarnation's ``recover()`` re-enqueues it.
        """
        if self.draining:
            return
        self.draining = True
        self.svc.flight.record("gateway_drain", self._now_ms(),
                               queued=len(self.svc.queue),
                               inflight=len(self._inflight))
        deadline = self._loop.time() + (grace_s if grace_s is not None
                                        else self.drain_grace_s)
        while ((self._inflight or len(self.svc.queue))
               and self._loop.time() < deadline):
            await asyncio.sleep(0.05)
        await self._shutdown()

    async def _shutdown(self) -> None:
        self._stopping = True
        for t in self._tasks:
            t.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.stop)
        if self._pump is not None and self._pump is not threading.current_thread():
            self._pump.join(timeout=5.0)
        self.svc.close()
        self._finished.set()

    def stop(self, grace_s: float = 10.0) -> None:
        """Thread-safe shutdown for a background-thread gateway."""
        if self._loop is None or not self._loop.is_running():
            return
        fut = asyncio.run_coroutine_threadsafe(self.drain(grace_s),
                                               self._loop)
        fut.result(timeout=grace_s + 30.0)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # -- worker plumbing ---------------------------------------------------------
    def _pump_main(self) -> None:
        """Drain the worker result queue onto the loop thread."""
        while not self._stopping:
            msg = self.pool.poll_message(timeout=0.2)
            if msg is None:
                continue
            loop = self._loop
            if loop is None or loop.is_closed():
                break
            try:
                loop.call_soon_threadsafe(self._on_worker_message, msg)
            except RuntimeError:           # loop shut down under us
                break

    async def _dispatch_loop(self) -> None:
        while True:
            handle = self.svc.queue.pop()
            if handle is None:
                self._work.clear()
                try:
                    await asyncio.wait_for(self._work.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass
                continue
            if handle.state != "QUEUED":   # lazily-deleted cancellation
                continue
            self._dispatch(handle)

    def _dispatch(self, handle: JobHandle) -> None:
        svc = self.svc
        fp = handle.request.fingerprint()
        now = self._sync_clock()
        # second-chance cache check: a twin may have finished while this
        # handle sat in the queue (mirrors the in-process scheduler)
        cached = svc._stored_result(fp)
        if cached is not None:
            svc._complete(handle, ResultCache.rebase(
                cached, submit_ms=handle.submit_ms, now_ms=now))
            self._finish_tenant(handle, was_queued=True)
            self._broadcast(fp, self._event_payload(handle))
            return
        svc._journal("start", handle, fp)
        svc._transition(handle, "RUNNING")
        mates = self._inflight.get(fp)
        if mates is not None:
            # fingerprint dedup: ride the already-dispatched execution
            mates.append(handle)
            self._broadcast(fp, self._event_payload(handle))
            return
        self._inflight[fp] = [handle]
        self._dispatch_ms[fp] = now
        resume = svc._checkpoint_path(fp)
        self.pool.dispatch({
            "fingerprint": fp,
            "request": self._encoded(handle),
            "job_id": handle.job_id,
            "resume_path": resume,
            "checkpoint_path": resume,
            "checkpoint_every": self.checkpoint_every,
        })
        svc.flight.record("dispatch", now, job=handle.job_id,
                          trace=handle.trace_id, fp=fp[:12])
        self._broadcast(fp, self._event_payload(handle))

    def _encoded(self, handle: JobHandle) -> dict:
        from ..serve.journal import encode_request
        return encode_request(handle.request)

    def _on_worker_message(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "started":
            _, fp, worker_id = msg
            self._worker_task[worker_id] = fp
            self.svc.flight.record("worker_start", self._now_ms(),
                                   fp=fp[:12], worker=worker_id)
            self._broadcast(fp, {"event": "started", "fingerprint": fp,
                                 "worker": worker_id})
        elif kind == "progress":
            _, fp, step, total, worker_id = msg
            self._broadcast(fp, {"event": "progress", "fingerprint": fp,
                                 "time_step": step, "total_steps": total,
                                 "worker": worker_id})
        elif kind == "done":
            _, fp, result, worker_id = msg
            self._worker_task.pop(worker_id, None)
            self._complete_fp(fp, result)
        elif kind == "failed":
            _, fp, error, worker_id = msg
            self._worker_task.pop(worker_id, None)
            self._fail_fp(fp, error)

    def _complete_fp(self, fp: str, result: JobResult) -> None:
        svc = self.svc
        handles = self._inflight.pop(fp, [])
        start = self._dispatch_ms.pop(fp, 0.0)
        if not handles:
            return                          # cancelled or already answered
        end = self._sync_clock()
        lead = handles[0]
        # the worker's result, stamped on the gateway's wall clock
        result = replace(result, submit_ms=lead.submit_ms, start_ms=start,
                         end_ms=end)
        self._executed.add(fp)
        svc._complete_executed(lead, fp, result)
        for extra in handles[1:]:
            svc._complete(extra, ResultCache.rebase(
                result, submit_ms=extra.submit_ms, now_ms=end))
        for h in handles:
            self._finish_tenant(h)
            self._broadcast_one(h.job_id, self._event_payload(h))
        m = svc.obs.metrics
        m.histogram("repro_gateway_wall_latency_ms",
                    "Wallclock submit-to-done latency per executed "
                    "job").observe(end - lead.submit_ms)

    def _fail_fp(self, fp: str, error: str) -> None:
        handles = self._inflight.pop(fp, [])
        self._dispatch_ms.pop(fp, None)
        for h in handles:
            self.svc._fail(h, error)
            self._finish_tenant(h)
            self._broadcast_one(h.job_id, self._event_payload(h))

    def _finish_tenant(self, handle: JobHandle,
                       was_queued: bool = False) -> None:
        name = self._tenant_of.get(handle.job_id)
        if name is not None:
            self.admission.on_finished(name, was_queued=was_queued)

    async def _reap_loop(self) -> None:
        """Respawn dead workers and re-dispatch their in-flight jobs."""
        while True:
            await asyncio.sleep(1.0)
            dead = self.pool.reap()
            for worker_id in dead:
                fp = self._worker_task.pop(worker_id, None)
                self.svc.flight.record("worker_respawn", self._now_ms(),
                                       worker=worker_id,
                                       fp=fp[:12] if fp else None)
                if fp is None or fp not in self._inflight:
                    continue
                lead = self._inflight[fp][0]
                resume = self.svc._checkpoint_path(fp)
                self.pool.dispatch({
                    "fingerprint": fp,
                    "request": self._encoded(lead),
                    "job_id": lead.job_id,
                    "resume_path": resume,
                    "checkpoint_path": resume,
                    "checkpoint_every": self.checkpoint_every,
                })

    # -- HTTP --------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as bad:
                    writer.write(Response.json(
                        bad.status, {"error": bad.message}).encode(
                            keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                match = _JOB_ROUTE.match(request.path)
                if (match and match.group(2) == "/events"
                        and request.wants_websocket):
                    await self._handle_events(request, int(match.group(1)),
                                              reader, writer)
                    return                 # connection consumed by WS
                response = self._route(request, match)
                self._count(request, response)
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _count(self, request: Request, response: Response) -> None:
        self.svc.obs.metrics.counter(
            "repro_gateway_requests_total",
            "HTTP requests by method, route family and status code",
            ("method", "route", "code")).inc(
                method=request.method,
                route=re.sub(r"/\d+", "/{id}", request.path),
                code=str(response.status))

    def _route(self, request: Request, match) -> Response:
        try:
            if request.path == "/v1/jobs" and request.method == "POST":
                return self._submit(request)
            if match is not None:
                job_id = int(match.group(1))
                tail = match.group(2)
                if tail is None and request.method == "GET":
                    return self._status(job_id)
                if tail is None and request.method == "DELETE":
                    return self._cancel(job_id)
                if tail == "/result" and request.method == "GET":
                    return self._result(job_id, request.query)
                return Response.json(405, {"error": "method not allowed"})
            if request.path == "/healthz" and request.method == "GET":
                return self._healthz()
            if request.path == "/metrics" and request.method == "GET":
                return Response.text(
                    200, prometheus_text(self.svc.obs.metrics),
                    content_type="text/plain; version=0.0.4")
            if request.path == "/" and request.method == "GET":
                return Response.json(200, {
                    "service": "repro.net",
                    "routes": ["POST /v1/jobs", "GET /v1/jobs/{id}",
                               "DELETE /v1/jobs/{id}",
                               "GET /v1/jobs/{id}/result",
                               "WS /v1/jobs/{id}/events",
                               "GET /healthz", "GET /metrics"]})
            return Response.json(404, {"error": f"no route for "
                                       f"{request.method} {request.path}"})
        except HttpError as bad:
            return Response.json(bad.status, {"error": bad.message})
        except Exception as exc:           # noqa: BLE001 - request firewall
            return Response.json(500, {"error":
                                       f"{type(exc).__name__}: {exc}"})

    def _authenticate(self, request: Request):
        key = request.headers.get("x-api-key")
        if key is None:
            auth = request.headers.get("authorization", "")
            if auth.lower().startswith("bearer "):
                key = auth[7:].strip()
        return self.admission.authenticate(key)

    def _submit(self, request: Request) -> Response:
        tenant = self._authenticate(request)
        if tenant is None:
            return Response.json(401, {"error": "missing or unknown "
                                       "API key (X-API-Key)"})
        if self.draining:
            return Response.json(
                503, {"error": "gateway is draining"}, **{"Retry-After": "5"})
        obj = request.json()
        try:
            req = decode_request(obj)
        except (ValueError, KeyError, TypeError) as bad:
            return Response.json(422, {"error": f"invalid request: {bad}"})
        fp = req.fingerprint()
        existing = self._fp_job.get(fp)
        if existing is not None:
            # idempotent resubmission: same fingerprint, same job, and
            # never a second execution
            self.svc.obs.metrics.counter(
                "repro_gateway_duplicates_total",
                "Duplicate POST /v1/jobs answered by fingerprint").inc()
            handle = self._handle_of[existing]
            payload = self._status_payload(handle)
            payload["duplicate"] = True
            return Response.json(200, payload)
        ok, reason, retry_after = self.admission.admit(
            tenant, self.svc.queue.capacity)
        if not ok:
            self._rate_limited(tenant.name, reason)
            return Response.json(
                429, {"error": "rate limited", "reason": reason,
                      "tenant": tenant.name},
                **{"Retry-After": f"{max(retry_after, 0.0):.3f}"})
        self._sync_clock()
        try:
            handle = self.svc.submit(req)
        except InvalidRequest as bad:
            return Response.json(422, {"error": str(bad)})
        except QueueFull as full:
            self._rate_limited(tenant.name, "queue-full")
            return Response.json(
                429, {"error": str(full), "reason": "queue-full",
                      "tenant": tenant.name}, **{"Retry-After": "1.0"})
        self._fp_job[fp] = handle.job_id
        self._handle_of[handle.job_id] = handle
        self._tenant_of[handle.job_id] = tenant.name
        if handle.done:                    # answered from cache/store
            return Response.json(200, self._status_payload(handle))
        self.admission.on_admitted(tenant.name)
        self._work.set()
        return Response.json(202, self._status_payload(handle))

    def _rate_limited(self, tenant: str, reason: str) -> None:
        self.svc.obs.metrics.counter(
            "repro_gateway_rate_limited_total",
            "Submissions refused by admission control",
            ("tenant", "reason")).inc(tenant=tenant, reason=reason)

    def _lookup(self, job_id: int) -> JobHandle:
        handle = self._handle_of.get(job_id)
        if handle is None:
            raise HttpError(404, f"no job {job_id}")
        return handle

    def _status(self, job_id: int) -> Response:
        return Response.json(200, self._status_payload(
            self._lookup(job_id)))

    def _status_payload(self, handle: JobHandle) -> dict:
        fp = handle.request.fingerprint()
        out = {
            "job_id": handle.job_id,
            "state": handle.state,
            "fingerprint": fp,
            "trace_id": handle.trace_id,
            "tenant": self._tenant_of.get(handle.job_id),
            "attempts": handle.attempts,
            "submit_ms": handle.submit_ms,
            "executed_in_process": fp in self._executed,
        }
        result = handle._result
        if handle.state == "DONE" and result is not None:
            out.update(
                from_cache=result.from_cache, from_store=result.from_store,
                wait_ms=result.wait_ms, latency_ms=result.latency_ms,
                end_ms=result.end_ms, time_step=result.time_step,
                devices=list(result.devices), attempts=result.attempts)
        elif handle.state in ("FAILED", "EVICTED"):
            out["error"] = handle.error
        return out

    def _cancel(self, job_id: int) -> Response:
        handle = self._lookup(job_id)
        if not handle.cancel():
            return Response.json(
                409, {"error": f"job {job_id} is {handle.state}; only "
                      "QUEUED jobs can be cancelled",
                      "state": handle.state})
        self._finish_tenant(handle, was_queued=True)
        self._broadcast_one(job_id, self._event_payload(handle))
        return Response.json(200, self._status_payload(handle))

    def _result(self, job_id: int, query: dict) -> Response:
        handle = self._lookup(job_id)
        if handle.state != "DONE":
            return Response.json(
                409, {"error": f"job {job_id} is {handle.state}, "
                      "not DONE", "state": handle.state})
        result = handle._result
        if query.get("format") == "npz":
            buf = io.BytesIO()
            arrays = {"field": result.field}
            for name, sig in result.receivers.items():
                arrays[f"recv:{name}"] = np.asarray(sig)
            np.savez(buf, **arrays)
            return Response(200, buf.getvalue(), {
                "Content-Type": "application/octet-stream",
                "X-Repro-Fingerprint": handle.request.fingerprint(),
                "X-Repro-Time-Step": str(result.time_step)})
        field = np.ascontiguousarray(result.field)
        import hashlib
        return Response.json(200, {
            "job_id": job_id,
            "fingerprint": handle.request.fingerprint(),
            "scheme": result.scheme,
            "precision": result.precision,
            "time_step": result.time_step,
            "devices": list(result.devices),
            "kernel_time_ms": result.kernel_time_ms,
            "halo_time_ms": result.halo_time_ms,
            "field": {"shape": list(field.shape),
                      "dtype": str(field.dtype),
                      "sha1": hashlib.sha1(field.tobytes()).hexdigest()},
            "receivers": {k: np.asarray(v).tolist()
                          for k, v in result.receivers.items()},
            "from_cache": result.from_cache,
            "from_store": result.from_store,
            "attempts": result.attempts,
        })

    def _healthz(self) -> Response:
        health = self.svc.health()
        health.update(
            gateway={
                "draining": self.draining,
                "uptime_s": round((self._now_ms()) / 1e3, 3),
                "jobs": len(self._handle_of),
                "inflight": len(self._inflight),
                "workers": {"alive": self.pool.alive,
                            "size": self.pool.size,
                            "respawns": self.pool.respawns},
                "tenants": self.admission.counts(),
                "refusals": dict(self.admission.refusals),
            })
        self.svc.obs.metrics.gauge(
            "repro_gateway_workers_alive",
            "Live worker processes in the pool").set(self.pool.alive)
        return Response.json(200, health)

    # -- WebSocket event streaming -----------------------------------------------
    def _event_payload(self, handle: JobHandle) -> dict:
        payload = self._status_payload(handle)
        payload["event"] = "state"
        payload["final"] = handle.done
        return payload

    def _broadcast(self, fp: str, payload: dict) -> None:
        for handle in self._inflight.get(fp, []):
            self._broadcast_one(handle.job_id, payload)
        job_id = self._fp_job.get(fp)
        if job_id is not None and not any(
                h.job_id == job_id for h in self._inflight.get(fp, [])):
            self._broadcast_one(job_id, payload)

    def _broadcast_one(self, job_id: int, payload: dict) -> None:
        for q in self._subscribers.get(job_id, ()):  # fan out, never block
            coalesced, dropped = q.coalesced, q.dropped
            q.push(payload)
            if q.coalesced > coalesced:
                self.svc.obs.metrics.counter(
                    "repro_gateway_ws_coalesced_total",
                    "Progress events merged into a newer one because the "
                    "subscriber had not read the older yet").inc()
            if q.dropped > dropped:
                self.svc.obs.metrics.counter(
                    "repro_gateway_ws_dropped_total",
                    "Event payloads discarded on subscriber-buffer "
                    "overflow (the client is resynced from a snapshot)"
                    ).inc(q.dropped - dropped)

    async def _handle_events(self, request: Request, job_id: int,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handle = self._handle_of.get(job_id)
        if handle is None:
            writer.write(Response.json(
                404, {"error": f"no job {job_id}"}).encode(keep_alive=False))
            await writer.drain()
            return
        ws = await WebSocket.accept(request, reader, writer)
        events = _Subscriber(self.ws_queue_limit)
        self._subscribers.setdefault(job_id, set()).add(events)
        reader_task = asyncio.ensure_future(ws.recv())
        try:
            # snapshot first: late subscribers see current state + the
            # flight-recorder history of this job, then live events
            snapshot = self._event_payload(handle)
            snapshot["event"] = "snapshot"
            snapshot["history"] = [
                e for e in self.svc.flight.events()
                if e.get("job") == job_id
                or e.get("fp") == handle.request.fingerprint()[:12]]
            await ws.send_json(snapshot)
            if handle.done:
                return
            while True:
                getter = asyncio.ensure_future(events.get())
                done, _ = await asyncio.wait(
                    {getter, reader_task},
                    return_when=asyncio.FIRST_COMPLETED)
                if reader_task in done:     # client went away / sent close
                    getter.cancel()
                    return
                owed_resync, payload = getter.result()
                if owed_resync:
                    # the backlog was dropped while this client lagged:
                    # restore authority with a fresh snapshot, then
                    # resume the live stream
                    resync = self._event_payload(handle)
                    resync["event"] = "resync"
                    resync["dropped"] = events.dropped
                    await ws.send_json(resync)
                    if resync["final"]:
                        return
                await ws.send_json(payload)
                if payload.get("final"):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._subscribers[job_id].discard(events)
            if not self._subscribers[job_id]:
                del self._subscribers[job_id]
            reader_task.cancel()
            await ws.close()
