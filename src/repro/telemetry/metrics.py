"""The metrics registry: counters, gauges, histograms, and live collectors.

One :class:`MetricsRegistry` aggregates what a component measures behind one
snapshot: a :class:`~repro.telemetry.recorder.Telemetry` owns one for the
whole stack, and every serving front-end's
:class:`~repro.serving.batcher.DynamicBatcher` owns one for its request
outcomes.

* **counters** — monotonic totals (``runtime.trials.completed``);
* **gauges** — latest values (``pool.size``);
* **histograms** — bounded distributions (:class:`Histogram`: fixed
  logarithmic buckets, exact count/sum/min/max/mean, p50/p95/p99 within
  0.5 % relative error), mergeable by adding bucket counts;
* **collectors** — named callbacks polled at snapshot time.  This is how
  live components (a server's or router's ``metrics()``, spill residency,
  pool/runner state) are *absorbed* rather than duplicated: the component
  registers ``lambda: component.metrics()`` once and the registry folds
  the result into every snapshot.

:meth:`MetricsRegistry.record` applies many counter increments and
histogram observations under one lock acquisition — the per-batch form a
hot path uses.  :meth:`MetricsRegistry.prometheus_text` renders the same
data in the Prometheus text exposition format (metric names sanitised,
nested collector dicts flattened with ``_``, non-numeric leaves skipped).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: the percentiles every histogram summary carries
_PERCENTILES = np.array([50.0, 95.0, 99.0])

#: relative error bound of every :class:`Histogram` percentile
_ALPHA = 0.005
#: bucket ratio: bucket ``k`` counts the values in ``(_GAMMA**(k-1), _GAMMA**k]``,
#: and its midpoint ``2 * _GAMMA**k / (1 + _GAMMA)`` is within ``_ALPHA`` of each
_GAMMA = (1 + _ALPHA) / (1 - _ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
#: the bucket of exact zeros: below the bucket of the smallest positive float
#: (about -74 000), and ``_GAMMA ** _ZERO_BUCKET`` underflows to a midpoint of 0
_ZERO_BUCKET = -(1 << 31)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become underscores)."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    return cleaned


def _bucket(value: float) -> int:
    """The index of the :class:`Histogram` bucket that counts ``value``."""
    if value > 0.0:
        return math.ceil(math.log(value) / _LOG_GAMMA)
    if value == 0.0:
        return _ZERO_BUCKET
    raise ValueError(f"histogram observations must be >= 0, got {value}")


def _buckets(values: Sequence[float]) -> List[int]:
    """:func:`_bucket` of every value, in one pass when all are positive."""
    try:
        return [math.ceil(math.log(value) / _LOG_GAMMA) for value in values]
    except ValueError:  # a zero, a negative or a NaN: let _bucket sort it out
        return [_bucket(value) for value in values]


class Histogram:
    """A bounded distribution: observation counts in fixed logarithmic buckets.

    Memory grows with the *range* of the observed values (about 230 buckets
    per factor of 10), never with their number.  Two histograms merge by
    adding bucket counts, so a merge equals the histogram of the pooled
    observations.  ``count``/``sum``/``min``/``max``/``mean`` are exact;
    p50/p95/p99 interpolate between bucket midpoints like
    ``numpy.percentile``'s default and are within 0.5 % relative error of
    the exact order statistics around them, clamped to ``[min, max]``.
    Observations must be >= 0 (:class:`ValueError` otherwise).
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self._add((value,), (_bucket(value),))

    def merge(self, other: "Histogram") -> None:
        """Add every observation of ``other`` to this histogram."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count

    def _add(self, values: Sequence[float], indices: Sequence[int]) -> None:
        """Add ``values`` whose bucket ``indices`` the caller computed."""
        if len(values) == 0:
            return
        self.count += len(values)
        self.total += sum(values)
        low, high = min(values), max(values)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        buckets = self._buckets
        for index in indices:
            buckets[index] = buckets.get(index, 0) + 1

    def snapshot(self) -> Dict[str, float]:
        """``count``/``sum``/``min``/``max``/``mean``/``p50``/``p95``/``p99``."""
        if not self.count:
            return dict.fromkeys(
                ("count", "sum", "min", "max", "mean", "p50", "p95", "p99"), 0.0
            )
        indices = sorted(self._buckets)
        ends = np.cumsum([self._buckets[index] for index in indices])
        midpoints = 2.0 * np.power(_GAMMA, np.array(indices, dtype=np.float64)) / (1.0 + _GAMMA)
        # The exact percentile interpolates between the order statistics at
        # ranks floor(r) and ceil(r); each is replaced by its bucket's midpoint.
        ranks = _PERCENTILES / 100.0 * (self.count - 1)
        below = np.floor(ranks)
        low = midpoints[np.searchsorted(ends, below, side="right")]
        high = midpoints[np.searchsorted(ends, np.ceil(ranks), side="right")]
        p50, p95, p99 = np.clip(low + (ranks - below) * (high - low), self.min, self.max)
        return {
            "count": float(self.count),
            "sum": float(self.total),
            "min": float(self.min),
            "max": float(self.max),
            "mean": float(self.total / self.count),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }


class MetricsRegistry:
    """Thread-safe metric store with one unified snapshot (see module docstring).

    Example::

        registry = MetricsRegistry()
        registry.counter("requests", 3)
        registry.observe("latency_ms", 4.2)
        registry.record(counters={"requests": 2}, observations={"latency_ms": [3.9, 5.1]})
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
        self.record(counters={name: value})

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Add one observation (>= 0) to a histogram (created on first touch)."""
        self.record(observations={name: (float(value),)})

    def record(
        self,
        counters: Optional[Mapping[str, float]] = None,
        observations: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> None:
        """Add counter increments and histogram observations in one go.

        The batch form of :meth:`counter` and :meth:`observe`: validation and
        bucket indexing happen before the registry lock is taken, and
        everything lands under one acquisition of it.
        """
        counters = counters or {}
        for name, value in counters.items():
            if value < 0:
                raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        binned = [
            (name, values, _buckets(values))
            for name, values in (observations or {}).items()
        ]
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, values, indices in binned:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram._add(values, indices)

    def counters(self) -> Dict[str, float]:
        """Every counter's current total (a copy)."""
        with self._lock:
            return dict(self._counters)

    def merged(self, names: Iterable[str]) -> Histogram:
        """A new histogram holding every observation of the named ones.

        Names never observed contribute nothing, so an empty ``names`` gives
        an empty histogram.
        """
        merged = Histogram()
        with self._lock:
            for name in names:
                histogram = self._histograms.get(name)
                if histogram is not None:
                    merged.merge(histogram)
        return merged

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
