"""Fixed-width sliding-window time series over the modelled clock.

Per-run observability (:mod:`.tracer`, :mod:`.metrics`) answers "what did
one simulation do"; the serving tier needs "what is the service doing
*per unit of modelled time*" — queue depth over the last second, p95
latency over the last minute, device utilisation per window.  This
module is that layer: a :class:`TimeSeries` buckets observations into
fixed-width windows of the modelled timeline, a :class:`TimeSeriesStore`
holds one series per signal, and the scheduler samples them at event
boundaries (submit / lease / complete / fail / evict), so no poller and
no wall clock is involved — the whole snapshot is a deterministic
function of the workload and the seed.

Because the clock is modelled, windows are exact: an observation at
``t_ms`` lands in window ``floor(t_ms / width_ms)``, busy intervals are
split across the windows they overlap, and late (out-of-order)
observations — e.g. a queue-wait recorded at completion time against its
submit time — still land in the right window as long as it has not been
evicted.  Only the most recent ``keep`` windows are retained; anything
older is dropped and counted in ``late_dropped``.
"""

from __future__ import annotations

__all__ = ["TimeSeries", "TimeSeriesStore", "window_percentile"]

#: cap on raw values retained per window for percentile estimation
DEFAULT_MAX_VALUES = 2048


def window_percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (deterministic, no
    interpolation): also the service's and the load generator's summary
    statistic."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = max(1, int(-(-q * len(xs) // 100)))   # ceil(q/100 * n)
    return float(xs[min(rank, len(xs)) - 1])


class _Window:
    """Aggregates of one fixed-width window of one series."""

    __slots__ = ("index", "count", "sum", "min", "max", "last", "values",
                 "value_drops")

    def __init__(self, index: int):
        self.index = index
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.last = None
        self.values: list[float] = []
        self.value_drops = 0


class TimeSeries:
    """One signal bucketed into fixed-width modelled-clock windows.

    Two recording verbs:

    * :meth:`observe` — a point observation (a latency, a queue-depth
      sample, a count increment) at a modelled timestamp;
    * :meth:`add_busy` — a ``[t0, t1]`` busy interval (device lease)
      whose duration is apportioned to every window it overlaps, which
      is what per-window utilisation needs.
    """

    def __init__(self, name: str, width_ms: float = 1000.0, keep: int = 8,
                 max_values: int = DEFAULT_MAX_VALUES):
        if width_ms <= 0:
            raise ValueError(f"width_ms must be positive, got {width_ms}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.name = name
        self.width_ms = float(width_ms)
        self.keep = keep
        self.max_values = max_values
        self._windows: dict[int, _Window] = {}
        self._max_index: int | None = None
        self.total_count = 0
        self.total_sum = 0.0
        self.late_dropped = 0

    # -- recording -----------------------------------------------------------------
    def _window(self, index: int) -> "_Window | None":
        if self._max_index is not None and index <= self._max_index - self.keep:
            self.late_dropped += 1
            return None
        w = self._windows.get(index)
        if w is None:
            w = self._windows[index] = _Window(index)
            if self._max_index is None or index > self._max_index:
                self._max_index = index
                floor = index - self.keep
                for old in [i for i in self._windows if i <= floor]:
                    del self._windows[old]
        return w

    def observe(self, t_ms: float, value: float = 1.0) -> None:
        """Record one observation of ``value`` at modelled time ``t_ms``."""
        w = self._window(int(float(t_ms) // self.width_ms))
        if w is None:
            return
        v = float(value)
        w.count += 1
        w.sum += v
        w.min = v if w.min is None else min(w.min, v)
        w.max = v if w.max is None else max(w.max, v)
        w.last = v
        if len(w.values) < self.max_values:
            w.values.append(v)
        else:
            w.value_drops += 1
        self.total_count += 1
        self.total_sum += v

    def add_busy(self, t0_ms: float, t1_ms: float) -> None:
        """Apportion the busy interval ``[t0, t1]`` across the windows it
        overlaps (``sum`` gains the overlap, ``count`` one per chunk)."""
        t0, t1 = float(t0_ms), float(t1_ms)
        if t1 <= t0:
            return
        first = int(t0 // self.width_ms)
        last = int(t1 // self.width_ms)
        for idx in range(first, last + 1):
            lo = max(t0, idx * self.width_ms)
            hi = min(t1, (idx + 1) * self.width_ms)
            if hi <= lo:
                continue
            w = self._window(idx)
            if w is None:
                continue
            w.count += 1
            w.sum += hi - lo
            self.total_count += 1
            self.total_sum += hi - lo

    # -- inspection ----------------------------------------------------------------
    def windows(self) -> list[dict]:
        """The retained windows as stat dicts, oldest first."""
        out = []
        for idx in sorted(self._windows):
            w = self._windows[idx]
            sec = self.width_ms / 1e3
            out.append({
                "start_ms": idx * self.width_ms,
                "end_ms": (idx + 1) * self.width_ms,
                "count": w.count,
                "sum": w.sum,
                "mean": (w.sum / w.count) if w.count else 0.0,
                "min": w.min if w.min is not None else 0.0,
                "max": w.max if w.max is not None else 0.0,
                "last": w.last if w.last is not None else 0.0,
                "rate_per_sec": w.count / sec,
                "p50": window_percentile(w.values, 50),
                "p95": window_percentile(w.values, 95),
                "p99": window_percentile(w.values, 99),
                "value_drops": w.value_drops,
            })
        return out

    def recent_values(self, n_windows: int | None = None) -> list[float]:
        """Raw retained values of the last ``n_windows`` windows (all
        retained windows when ``None``), oldest first."""
        indices = sorted(self._windows)
        if n_windows is not None:
            indices = indices[-n_windows:]
        vals: list[float] = []
        for idx in indices:
            vals.extend(self._windows[idx].values)
        return vals

    def recent_counts(self, n_windows: int | None = None) -> tuple[int, float]:
        """(count, sum) over the last ``n_windows`` windows."""
        indices = sorted(self._windows)
        if n_windows is not None:
            indices = indices[-n_windows:]
        count = sum(self._windows[i].count for i in indices)
        total = sum(self._windows[i].sum for i in indices)
        return count, total

    def snapshot(self) -> dict:
        return {
            "width_ms": self.width_ms,
            "keep": self.keep,
            "total_count": self.total_count,
            "total_sum": self.total_sum,
            "late_dropped": self.late_dropped,
            "windows": self.windows(),
        }

    def __repr__(self) -> str:
        return (f"TimeSeries({self.name!r}, width={self.width_ms:g}ms, "
                f"windows={len(self._windows)}, n={self.total_count})")


class TimeSeriesStore:
    """Named :class:`TimeSeries`, get-or-create, one window geometry."""

    def __init__(self, width_ms: float = 1000.0, keep: int = 8,
                 max_values: int = DEFAULT_MAX_VALUES):
        if width_ms <= 0:
            raise ValueError(f"width_ms must be positive, got {width_ms}")
        self.width_ms = float(width_ms)
        self.keep = keep
        self.max_values = max_values
        self._series: dict[str, TimeSeries] = {}

    def series(self, name: str) -> TimeSeries:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = TimeSeries(
                name, self.width_ms, self.keep, self.max_values)
        return s

    def get(self, name: str) -> TimeSeries | None:
        return self._series.get(name)

    def observe(self, name: str, t_ms: float, value: float = 1.0) -> None:
        self.series(name).observe(t_ms, value)

    def add_busy(self, name: str, t0_ms: float, t1_ms: float) -> None:
        self.series(name).add_busy(t0_ms, t1_ms)

    def snapshot(self) -> dict:
        """Every series' windows, deterministically ordered by name."""
        return {
            "width_ms": self.width_ms,
            "keep": self.keep,
            "series": {name: self._series[name].snapshot()
                       for name in sorted(self._series)},
        }

    def __iter__(self):
        return iter(sorted(self._series.values(), key=lambda s: s.name))

    def __repr__(self) -> str:
        return (f"TimeSeriesStore(width={self.width_ms:g}ms, "
                f"series={sorted(self._series)})")
