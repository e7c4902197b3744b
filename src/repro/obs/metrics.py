"""Named counters, gauges and histograms with atomic bumps.

Unlike tracing, metrics are always on: a counter bump is one lock
acquisition and an int add, cheap enough for cache hit/miss accounting
and fleet scheduling decisions.  The kernel dispatcher bumps its
``kernel.<class>.calls``/``.bytes`` counters on every gate, traced or
not (a layered small-state program bumps them once per execution).

The process-wide registry is :data:`METRICS`.  A fresh
:class:`MetricsRegistry` is an isolated namespace (the tests build one
per case); fleet counters are not metrics at all but counts over the
store's journal (:meth:`repro.fleet.store.JobStore.telemetry`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins numeric metric."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Streaming summary of observations: count / total / min / max."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {
                "count": self.count,
                "total": self.total,
                "mean": mean,
                "min": self.min,
                "max": self.max,
            }


class MetricsRegistry:
    """Get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _get(self, table: Dict[str, Any], name: str, factory: Callable[[str], Any]):
        metric = table.get(name)
        if metric is not None:
            return metric
        with self._lock:
            metric = table.get(name)
            if metric is None:
                metric = factory(name)
                table[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram)

    def counter_value(self, name: str) -> int:
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """Counter values, optionally filtered by name prefix."""
        with self._lock:
            items = list(self._counters.items())
        return {
            name: counter.value
            for name, counter in sorted(items)
            if name.startswith(prefix)
        }

    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time dump of every metric, JSON-serialisable."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {name: c.value for name, c in sorted(counters)},
            "gauges": {name: g.value for name, g in sorted(gauges)},
            "histograms": {name: h.summary() for name, h in sorted(histograms)},
        }

    def reset(self) -> None:
        """Drop every metric (tests isolate themselves with this)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: Process-wide registry; the cache scoreboard and phase reports read it.
METRICS = MetricsRegistry()
