"""repro.net — the network gateway over :mod:`repro.serve`.

Everything below :mod:`repro.serve` is in-process: a
:class:`~repro.serve.SimulationService` schedules jobs on a modelled
clock for whoever holds a Python reference to it.  This package is the
front door that makes the service *reachable* — a stdlib-only asyncio
HTTP + WebSocket gateway with multi-tenant admission control, fronting
real OS worker processes so wallclock throughput scales with cores:

* :mod:`.http` — a minimal HTTP/1.1 request/response layer and RFC 6455
  WebSocket framing over asyncio streams (no framework dependency);
* :mod:`.ratelimit` — per-tenant :class:`TokenBucket` rate limiting plus
  concurrent-job and queue-share quotas (:class:`AdmissionController`);
* :mod:`.pool` — the :class:`WorkerPool` of multiprocessing worker
  processes executing jobs through :func:`repro.serve.job.run_job`,
  the same path the in-process scheduler uses;
* :mod:`.gateway` — the :class:`Gateway` itself: routes
  ``POST/GET/DELETE /v1/jobs``, ``GET /v1/jobs/{id}/result`` (served
  from the content-addressed :class:`~repro.serve.ResultStore`),
  ``WS /v1/jobs/{id}/events`` progress streaming, ``GET /metrics``
  (Prometheus) and ``GET /healthz``; graceful SIGTERM drain; the
  durable journal/store of PR 6 as the crash boundary, so
  :meth:`~repro.serve.SimulationService.recover` rebuilds gateway state
  after a kill with zero re-execution of completed jobs;
* :mod:`.client` — a small blocking HTTP + WebSocket client used by the
  tests, the load generator, and the chaos harness;
* :mod:`.chaos` — the ``gateway_kill`` scenario: SIGKILL the serving
  process mid-run, restart on the same durable directory, and assert
  idempotent resubmission with zero re-execution;
* ``python -m repro.net`` — the serving entrypoint (and ``python -m
  repro.net chaos`` for the kill scenario).

Submission is idempotent end to end: the request fingerprint
(:meth:`repro.serve.SubmitRequest.fingerprint`) is the idempotency key,
so a duplicate ``POST /v1/jobs`` — same process, another tenant, or a
post-crash resubmission — returns the original job id and never
re-executes an answered request.  See ``docs/gateway.md``.

Quick start::

    from repro.net import Gateway

    gw = Gateway(workers=2, durable_dir="/var/lib/repro")
    gw.serve_forever()          # or gw.start() for a background thread

    # curl -X POST -H 'X-API-Key: key-alpha' -d @job.json \\
    #     http://127.0.0.1:8080/v1/jobs
"""

from .chaos import run_gateway_chaos
from .client import GatewayClient
from .gateway import Gateway
from .http import (HttpError, Request, Response, WebSocket,
                   websocket_accept_key)
from .pool import WorkerPool
from .ratelimit import (AdmissionController, Tenant, TokenBucket,
                        default_tenants)

__all__ = [
    "AdmissionController", "Gateway", "GatewayClient", "HttpError",
    "Request", "Response", "Tenant", "TokenBucket", "WebSocket",
    "WorkerPool", "default_tenants", "run_gateway_chaos",
    "websocket_accept_key",
]
