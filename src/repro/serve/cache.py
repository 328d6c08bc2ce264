"""The service's two cache tiers: compiled programs and finished results.

**Compile tier** — :class:`CompileCache` memoises the
:func:`repro.lift.codegen.host.compile_host` output per
(scheme, precision, branch count, device hardware model).  It compiles
through :func:`repro.acoustics.host_io.host_program`, the builder
``RoomSimulation`` itself uses (``fi`` → the fused single-kernel host
program; ``fi_mm``/``fd_mm`` → the two-kernel program), and hands the
compiled ``HostProgram`` to jobs through ``SimConfig.host_program``, so
a thousand jobs of the same shape compile once, and a fresh pool
worker finds each shape's program in the loops disk cache without
loading the LIFT front end.  The device component of the key strips the spec's
name/board — the shards of a ``"TitanBlack:2"`` pool are the same
hardware and share entries.  The cache also carries the process-wide
:func:`repro.gpu.autotune.autotune_memo`, so workgroup sweeps executed
by one job are reused by every later job on the same hardware model.

**Result tier** — :class:`ResultCache` is content-addressed over
:meth:`repro.serve.job.SubmitRequest.fingerprint` (everything that
determines the answer, nothing that only determines scheduling), bounded
with LRU eviction.  A hit re-times the stored payload at the current
modelled clock but returns the *same arrays* — bit-identity for free,
because the stepper is deterministic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

from ..gpu.autotune import AutotuneMemo, autotune_memo
from ..gpu.device import DeviceSpec
from .job import JobResult, SubmitRequest


def request_fingerprint(request: SubmitRequest) -> str:
    """Content address of a request (see ``SubmitRequest.fingerprint``)."""
    return request.fingerprint()


class CompileCache:
    """Memo of compiled host programs, keyed by shape and hardware model."""

    def __init__(self, autotune: AutotuneMemo | None = None):
        self._programs: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0
        #: the workgroup-sweep memo shared with the virtual runtime
        self.autotune = autotune if autotune is not None else autotune_memo()

    @staticmethod
    def key(request: SubmitRequest, device: DeviceSpec) -> tuple:
        """(scheme, precision, effective branch count, hardware model).

        The branch count mirrors ``RoomSimulation``: the material table
        carries ``num_branches`` only for ``fd_mm`` (0 otherwise), and
        the two-kernel host program is built with ``num_branches or 3``
        — so ``fi_mm`` always compiles the 3-branch variant and ``fi``
        has no branch dimension at all.
        """
        if request.scheme == "fd_mm":
            branches = request.num_branches or 3
        elif request.scheme == "fi_mm":
            branches = 3
        else:
            branches = 0
        return (request.scheme, request.precision, branches,
                replace(device, name="", board=""))

    def program_for(self, request: SubmitRequest, device: DeviceSpec):
        """The compiled ``HostProgram`` for this request shape (cached)."""
        key = self.key(request, device)
        prog = self._programs.get(key)
        if prog is not None:
            self.hits += 1
            return prog
        self.misses += 1
        from ..acoustics.host_io import host_program
        prog = host_program(request.scheme, request.precision, key[2])
        self._programs[key] = prog
        return prog

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        self._programs.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses,
                "autotune_hits": self.autotune.hits,
                "autotune_misses": self.autotune.misses}


class ResultCache:
    """Bounded LRU of finished :class:`JobResult` payloads by fingerprint."""

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, JobResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, fingerprint: str) -> JobResult | None:
        r = self._entries.get(fingerprint)
        if r is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return r

    def put(self, fingerprint: str, result: JobResult) -> None:
        if self.capacity == 0:
            return
        self._entries[fingerprint] = result
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    @staticmethod
    def rebase(result: JobResult, *, submit_ms: float,
               now_ms: float) -> JobResult:
        """A cache hit re-stamped at the current clock: zero device time
        consumed, same arrays (the payload is shared, not copied)."""
        return replace(result, submit_ms=submit_ms, start_ms=now_ms,
                       end_ms=now_ms, from_cache=True, attempts=0)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict:
        return {"entries": len(self), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
