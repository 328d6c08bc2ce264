"""repro.obs — end-to-end tracing, metrics, and profiling.

The paper's whole evaluation hangs off the OpenCL profiling API ("medians
of 2000 executions ... only running times of each kernel are reported");
this package is the reproduction's equivalent instrument panel, spanning
every layer:

* :mod:`.tracer` — spans over a modelled clock (cost-model durations for
  device work, wall time for compilation), with context propagation so
  ``sim.step`` → ``gpu.execute`` → ``kernel`` nest automatically;
* :mod:`.metrics` — labelled counters, gauges, histograms;
* :mod:`.export` — Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto) and Prometheus text exposition, plus schema validators;
* :mod:`.report` — the per-kernel roofline/occupancy table (the virtual
  analogue of the paper's Table IV);
* :mod:`.timeseries` — fixed-width sliding-window series over the
  modelled clock (queue depth, rates, percentiles, utilisation);
* :mod:`.slo` — declarative objectives with multi-window burn-rate
  alerting over those windows;
* :mod:`.flight` — the always-on bounded flight recorder dumped as a
  black box on divergence or (simulated) crash;
* :mod:`.dashboard` — the deterministic text dashboard over a service
  snapshot;
* ``python -m repro.obs`` — run a scenario, emit ``trace.json`` +
  ``metrics.prom``, print the report; ``python -m repro.obs dashboard``
  renders the serving dashboard.

Observability is **off by default and strictly opt-in**: with no active
session, :func:`get` returns ``None`` and every instrumented call site
reduces to one ``None`` check, so the un-traced hot path and all modelled
numbers are untouched.  Enable it around a region of interest::

    from repro import obs

    with obs.observe() as o:
        sim.run(100)
    o.write("trace.json", "metrics.prom")

or globally with :func:`enable` / :func:`disable`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager, nullcontext
from typing import Iterator

from .tracer import ModelClock, Span, Tracer
from .metrics import (Counter, DEFAULT_MS_BUCKETS, Gauge, Histogram,
                      MetricsRegistry)

__all__ = [
    "ModelClock", "Span", "Tracer",
    "Counter", "DEFAULT_MS_BUCKETS", "Gauge", "Histogram", "MetricsRegistry",
    "chrome_trace", "prometheus_text", "stitch_chrome_trace", "stitch_spans",
    "validate_chrome_trace", "validate_prometheus_text",
    "write_chrome_trace", "write_prometheus", "write_stitched_trace",
    "KernelReportRow", "kernel_report", "render_kernel_report",
    "TimeSeries", "TimeSeriesStore", "window_percentile",
    "SLO", "SLOStatus", "SLOTracker", "default_slos",
    "FlightRecorder",
    "render_dashboard", "service_snapshot", "validate_dashboard",
    "Observability", "enable", "disable", "get", "observe", "span",
]

#: exports resolved on first access (PEP 562): an instrumented hot path
#: needs only :func:`get`, so it loads neither the exporters nor the
#: serving-side windows, objectives and dashboard
_LAZY = {
    **dict.fromkeys(("chrome_trace", "prometheus_text", "stitch_chrome_trace",
                     "stitch_spans", "validate_chrome_trace",
                     "validate_prometheus_text", "write_chrome_trace",
                     "write_prometheus", "write_stitched_trace"), "export"),
    **dict.fromkeys(("KernelReportRow", "kernel_report",
                     "render_kernel_report"), "report"),
    **dict.fromkeys(("TimeSeries", "TimeSeriesStore", "window_percentile"),
                    "timeseries"),
    **dict.fromkeys(("SLO", "SLOStatus", "SLOTracker", "default_slos"), "slo"),
    "FlightRecorder": "flight",
    **dict.fromkeys(("render_dashboard", "service_snapshot",
                     "validate_dashboard"), "dashboard"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


class Observability:
    """One observability session: a tracer and a metrics registry."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # conveniences mirroring the two sub-objects
    def span(self, name: str, cat: str = "phase", wall: bool = False,
             **attrs):
        return self.tracer.span(name, cat, wall=wall, **attrs)

    def event(self, name: str, cat: str, duration_ms: float, **attrs) -> Span:
        return self.tracer.event(name, cat, duration_ms, **attrs)

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self.metrics.counter(name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self.metrics.gauge(name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_MS_BUCKETS) -> Histogram:
        return self.metrics.histogram(name, help, labelnames, buckets)

    def report(self) -> str:
        from .report import kernel_report, render_kernel_report
        return render_kernel_report(kernel_report(self.tracer))

    def write(self, trace_path=None, metrics_path=None) -> None:
        """Dump the session's trace and/or metrics to files."""
        from .export import write_chrome_trace, write_prometheus
        if trace_path is not None:
            write_chrome_trace(self.tracer, trace_path)
        if metrics_path is not None:
            write_prometheus(self.metrics, metrics_path)


#: the active session; ``None`` keeps every instrumented site a no-op
_ACTIVE: Observability | None = None

#: shared no-op context manager for disabled call sites
_NULL = nullcontext()


def get() -> Observability | None:
    """The active session, or ``None`` when observability is off.

    This is the single guard every instrumented layer uses; it must stay
    allocation-free so the disabled path costs one attribute read.
    """
    return _ACTIVE


def enable(session: Observability | None = None) -> Observability:
    """Install (and return) an observability session globally."""
    global _ACTIVE
    _ACTIVE = session if session is not None else Observability()
    return _ACTIVE


def disable() -> Observability | None:
    """Deactivate; returns the retired session for export/inspection."""
    global _ACTIVE
    retired, _ACTIVE = _ACTIVE, None
    return retired


@contextmanager
def observe(session: Observability | None = None) -> Iterator[Observability]:
    """Scoped observability: install a fresh session for the block and
    restore whatever was active before (sessions do not nest — the
    inner one simply shadows the outer for the duration)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = session if session is not None else Observability()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


def span(name: str, cat: str = "phase", wall: bool = False, **attrs):
    """Module-level span helper: a real span when a session is active,
    the shared no-op context manager otherwise."""
    a = _ACTIVE
    if a is None:
        return _NULL
    return a.tracer.span(name, cat, wall=wall, **attrs)
