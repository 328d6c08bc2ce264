"""Benchmark-owned span recorder (pure Python, no repro import).

Spans are recorded from the benchmark's own files, around the public
calls into each layer; nothing inside ``src/`` is instrumented.  They
are kept in memory and exported once, at the end of the run, as Chrome
trace-event JSON (the format ``repro.obs.validate_chrome_trace``
checks) plus a per-name self-time table for ``ledger.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    """In-memory spans: ``(id, name, start_ns, end_ns, parent_id)``.

    ``enabled`` can be flipped between blocks, which is how a traced run
    measures its own overhead: blocks alternate between recording and
    not recording, and the two best blocks are compared.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.enabled = True
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans) + 1
        rec = {"id": span_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": time.perf_counter_ns() - self._origin,
               "end_ns": None}
        self.spans.append(rec)
        self._stack.append(span_id)
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns() - self._origin
            self._stack.pop()


class NullRecorder:
    """The untraced run's recorder: ``span()`` does nothing."""

    trace_id = ""
    enabled = False
    spans: list = []

    @contextmanager
    def span(self, name: str):
        yield


def chrome_trace(spans, trace_id: str, process_name: str) -> dict:
    """Chrome trace-event document of finished spans (one track)."""
    events = [
        {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
         "args": {"name": process_name}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": f"benchmark wall clock ({trace_id})"}},
    ]
    for s in spans:
        args = {"span_id": s["id"], "trace_id": trace_id}
        if s["parent"] is not None:
            args["parent_id"] = s["parent"]
        events.append({
            "ph": "X", "name": s["name"], "cat": "bench",
            "ts": s["start_ns"] / 1e3,       # trace-event unit: microseconds
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": 1, "tid": 1, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans) -> dict:
    """Per span name (``block[3]`` counts under ``block``): count, total
    and self time in ms.  A span's self time is its duration minus the
    part its direct children cover."""
    covered: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (covered.get(s["parent"], 0)
                                    + s["end_ns"] - s["start_ns"])
    table: dict[str, dict] = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        row = table.setdefault(s["name"].partition("[")[0],
                               {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur / 1e6
        row["self_ms"] += (dur - covered.get(s["id"], 0)) / 1e6
    return table
