"""The metrics registry: counters, gauges, histograms, and live collectors.

One :class:`MetricsRegistry` (owned by a
:class:`~repro.telemetry.recorder.Telemetry`) aggregates everything the
stack measures behind one snapshot schema (documented in
:mod:`repro.telemetry.schema`):

* **counters** — monotonic totals (``runtime.trials.completed``);
* **gauges** — latest values (``pool.size``);
* **histograms** — bounded-sample distributions with p50/p95/p99;
* **collectors** — named callbacks polled at snapshot time.  This is how
  existing live stats objects (:class:`~repro.serving.stats.ServerStats`,
  spill residency, pool/runner state) are *absorbed* rather than
  duplicated: the component registers ``lambda: stats.snapshot()`` once
  and the registry folds the result into every snapshot.

:meth:`MetricsRegistry.prometheus_text` renders the same data in the
Prometheus text exposition format (metric names sanitised, nested
collector dicts flattened with ``_``, non-numeric leaves skipped).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: the percentiles every distribution report carries (histograms here, the
#: serving-side latency reports through :func:`percentile_summary`)
_PERCENTILES = (50.0, 95.0, 99.0)


def percentile_summary(samples) -> Dict[str, float]:
    """``{"p50", "p95", "p99"}`` of a sample; all zeros when it is empty.

    An empty sample has no distribution to report, and every caller prefers
    a well-formed dict over an exception in that window.
    """
    values = np.asarray(samples, dtype=np.float64)
    if not values.size:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = np.percentile(values, _PERCENTILES)
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become underscores)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


#: samples a :class:`Histogram` keeps for its percentiles
_HISTOGRAM_WINDOW = 4096


class Histogram:
    """A bounded-sample distribution (windowed: keeps the last 4096 samples)."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._samples) < _HISTOGRAM_WINDOW:
            self._samples.append(value)
        else:
            # Ring buffer: percentiles reflect the most recent window.
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % _HISTOGRAM_WINDOW

    def snapshot(self) -> Dict[str, float]:
        summary = {
            "count": float(self.count),
            "sum": float(self.total),
            "min": 0.0 if self.min is None else float(self.min),
            "max": 0.0 if self.max is None else float(self.max),
            "mean": float(self.total / self.count) if self.count else 0.0,
        }
        summary.update(percentile_summary(self._samples))
        return summary


class MetricsRegistry:
    """Thread-safe metric store with one unified snapshot (see module docstring).

    Example::

        registry = MetricsRegistry()
        registry.counter("requests", 3)
        registry.observe("latency_ms", 4.2)
        registry.register_collector("server", lambda: server.metrics())
        snap = registry.snapshot()
        text = registry.prometheus_text()
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (>= 0) to a monotonic counter."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to a histogram (created on first touch)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def register_collector(self, name: str, fn: Callable[[], Dict[str, Any]]) -> None:
        """Register (or replace) a callback polled at snapshot time.

        ``fn()`` must return a dict; nested dicts are kept in snapshots and
        flattened for Prometheus.  Collectors are the absorption point for
        live stats objects — the data stays owned by the component, the
        registry just reads it when asked.
        """
        if not callable(fn):
            raise TypeError(f"collector {name!r} must be callable")
        with self._lock:
            self._collectors[name] = fn

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """The unified snapshot: counters/gauges/histograms/collectors.

        Collector callbacks run *outside* the registry lock (they may take
        their own component locks); a collector that raises contributes an
        ``{"error": ...}`` row instead of poisoning the snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: histogram.snapshot()
                for name, histogram in self._histograms.items()
            }
            collectors = dict(self._collectors)
        collected: Dict[str, Any] = {}
        for name, fn in sorted(collectors.items()):
            try:
                collected[name] = fn()
            except Exception as error:  # noqa: BLE001 - snapshot must not die
                collected[name] = {"error": f"{type(error).__name__}: {error}"}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "collectors": collected,
        }

    def prometheus_text(self, prefix: str = "repro") -> str:
        """The snapshot in Prometheus text exposition format.

        Counters render with a ``# TYPE ... counter`` header, gauges and
        flattened collector leaves as gauges, histograms as their summary
        leaves.  Non-numeric collector leaves (model-name lists, strings)
        are skipped — exposition is numbers only.
        """
        snap = self.snapshot()
        lines: List[str] = []

        def emit(name: str, kind: str, value: float) -> None:
            metric = _sanitize(f"{prefix}_{name}")
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {value:g}")

        for name, value in sorted(snap["counters"].items()):
            emit(name, "counter", value)
        for name, value in sorted(snap["gauges"].items()):
            emit(name, "gauge", value)
        for name, summary in sorted(snap["histograms"].items()):
            for leaf, value in sorted(summary.items()):
                emit(f"{name}_{leaf}", "gauge", value)
        for name, payload in sorted(snap["collectors"].items()):
            for leaf, value in sorted(_flatten(payload).items()):
                emit(f"{name}_{leaf}", "gauge", value)
        return "\n".join(lines) + ("\n" if lines else "")


def _flatten(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested dict, joined with ``_`` (others skipped)."""
    flat: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            name = f"{prefix}_{key}" if prefix else str(key)
            flat.update(_flatten(value, name))
    elif isinstance(payload, bool):  # bools are ints; keep them out
        pass
    elif isinstance(payload, (int, float)):
        flat[prefix] = float(payload)
    return flat
