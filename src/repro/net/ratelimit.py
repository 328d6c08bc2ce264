"""Per-tenant admission control: token buckets + quotas.

The gateway admits a job only when the submitting tenant passes three
independent checks, evaluated in this order:

1. **concurrent-job quota** — a tenant may have at most
   ``max_concurrent`` jobs outstanding (queued or running);
2. **queue-share quota** — a tenant may occupy at most ``queue_share``
   of the service's bounded queue, so one noisy tenant cannot starve
   the others even when under its own rate limit;
3. **rate limit** — a classic :class:`TokenBucket` of ``rate`` jobs/s
   with ``burst`` capacity.

Quota checks run *before* the bucket so a request refused for
concurrency does not burn a rate token.  All refusals map to HTTP 429
with a ``Retry-After`` hint (0 for quota refusals — retry when one of
your jobs finishes).

Clocks are injectable so the unit tests drive time deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["AdmissionController", "Tenant", "TokenBucket",
           "default_tenants"]


class TokenBucket:
    """A token-bucket rate limiter with an injectable monotonic clock.

    The bucket holds at most ``burst`` tokens and refills continuously
    at ``rate`` tokens per second.  :meth:`try_acquire` either takes the
    requested tokens and returns ``0.0``, or leaves the bucket untouched
    and returns the number of seconds until the request *would* succeed
    (the ``Retry-After`` value).
    """

    def __init__(self, rate: float, burst: float, *,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, n: float = 1.0) -> float:
        """Take ``n`` tokens if available; return seconds to wait if not."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


@dataclass(frozen=True)
class Tenant:
    """A gateway tenant: an API key plus its admission limits."""

    name: str
    api_key: str
    rate: float = 20.0          # sustained submissions per second
    burst: float = 10.0         # bucket capacity
    max_concurrent: int = 32    # outstanding (queued + running) jobs
    queue_share: float = 0.5    # max fraction of the service queue held


def default_tenants() -> tuple[Tenant, ...]:
    """Three demo tenants, as used by the docs, tests and chaos harness."""
    return (
        Tenant("alpha", "key-alpha", rate=50.0, burst=25.0,
               max_concurrent=64, queue_share=0.5),
        Tenant("beta", "key-beta", rate=20.0, burst=10.0,
               max_concurrent=32, queue_share=0.4),
        Tenant("gamma", "key-gamma", rate=5.0, burst=4.0,
               max_concurrent=8, queue_share=0.25),
    )


class AdmissionController:
    """Authenticates API keys and enforces per-tenant admission limits.

    The controller tracks, per tenant, how many jobs are queued and how
    many are outstanding (queued + running).  The gateway reports state
    changes through :meth:`on_admitted` / :meth:`on_started` /
    :meth:`on_finished`; :meth:`admit` evaluates the three checks
    described in the module docstring.
    """

    def __init__(self, tenants, *, clock=time.monotonic) -> None:
        tenants = tuple(tenants)
        if not tenants:
            raise ValueError("at least one tenant is required")
        self._by_key = {}
        self._buckets = {}
        self._queued = {}
        self._outstanding = {}
        self.refusals = {"rate": 0, "concurrency": 0, "queue-share": 0}
        for t in tenants:
            if t.api_key in self._by_key:
                raise ValueError(f"duplicate API key for tenant {t.name!r}")
            self._by_key[t.api_key] = t
            self._buckets[t.name] = TokenBucket(t.rate, t.burst, clock=clock)
            self._queued[t.name] = 0
            self._outstanding[t.name] = 0

    @property
    def tenants(self) -> tuple[Tenant, ...]:
        return tuple(self._by_key.values())

    def authenticate(self, api_key: str | None) -> Tenant | None:
        if not api_key:
            return None
        return self._by_key.get(api_key)

    def admit(self, tenant: Tenant,
              queue_capacity: int) -> tuple[bool, str, float]:
        """Return ``(admitted, reason, retry_after_s)`` for one submission."""
        if self._outstanding[tenant.name] >= tenant.max_concurrent:
            self.refusals["concurrency"] += 1
            return False, "concurrency", 0.0
        share_cap = max(1, int(tenant.queue_share * queue_capacity))
        if self._queued[tenant.name] >= share_cap:
            self.refusals["queue-share"] += 1
            return False, "queue-share", 0.0
        wait = self._buckets[tenant.name].try_acquire()
        if wait > 0.0:
            self.refusals["rate"] += 1
            return False, "rate", wait
        return True, "", 0.0

    def on_admitted(self, name: str) -> None:
        self._queued[name] = self._queued.get(name, 0) + 1
        self._outstanding[name] = self._outstanding.get(name, 0) + 1

    def on_started(self, name: str) -> None:
        if self._queued.get(name, 0) > 0:
            self._queued[name] -= 1

    def on_finished(self, name: str, *, was_queued: bool = False) -> None:
        if was_queued and self._queued.get(name, 0) > 0:
            self._queued[name] -= 1
        if self._outstanding.get(name, 0) > 0:
            self._outstanding[name] -= 1

    def counts(self) -> dict:
        """Per-tenant occupancy snapshot for ``GET /healthz``."""
        return {
            name: {"queued": self._queued[name],
                   "outstanding": self._outstanding[name]}
            for name in self._buckets
        }
