"""Latency and throughput accounting for the serving subsystem.

One :class:`LatencyStats` instance accumulates per-request latencies (and
the counters around them) behind a lock, so replica threads, the admission
path, and metric readers never race.  Percentiles are computed on demand
from the raw samples, and every sample is kept — serving runs here are
thousands of requests, not millions, and exact p99 beats a sketch at that
scale.  (The bounded store is :class:`repro.telemetry.metrics.Histogram`.)

:class:`ServerStats` is the fleet-level aggregation the
:class:`~repro.serving.router.FleetRouter` reports through: one fleet-wide
:class:`LatencyStats` plus one per model, fed together so a single request
lands in both its model's distribution and the fleet's.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.telemetry.metrics import percentile_summary


def latency_summary(latencies_seconds: List[float]) -> Dict[str, float]:
    """p50/p95/p99/mean of a latency sample, in milliseconds.

    Empty samples yield zeros (a server that has answered nothing has no
    latency distribution to report, and callers prefer a well-formed dict
    over an exception in that window).
    """
    values = np.asarray(latencies_seconds, dtype=np.float64) * 1e3
    percentiles = percentile_summary(values)
    return {
        "latency_p50_ms": percentiles["p50"],
        "latency_p95_ms": percentiles["p95"],
        "latency_p99_ms": percentiles["p99"],
        "latency_mean_ms": float(values.mean()) if values.size else 0.0,
    }


class LatencyStats:
    """Thread-safe accumulator of request outcomes and latencies.

    ``record`` takes one completed request's end-to-end latency (queue wait
    plus inference) in seconds; the failure counters classify everything
    that never produced a response.  ``snapshot`` freezes the counters and
    percentiles into a plain dict for reports and benchmarks.

    Example::

        stats = LatencyStats()
        stats.record(0.004)
        assert stats.snapshot()["completed"] == 1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: List[float] = []
        self.rejected = 0
        self.timed_out = 0
        self.failed = 0
        self.batches = 0
        self.batch_rows = 0
        self.queue_depth_max = 0
        self._queue_depth_sum = 0
        self._queue_depth_samples = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    def record(self, latency_seconds: float) -> None:
        """Record one completed request's end-to-end latency."""
        with self._lock:
            self._latencies.append(float(latency_seconds))

    def count(self, *, rejected: int = 0, timed_out: int = 0, failed: int = 0) -> None:
        """Bump the failure counters (requests that produced no response)."""
        with self._lock:
            self.rejected += rejected
            self.timed_out += timed_out
            self.failed += failed

    def record_batch(self, rows: int, queue_depth: Optional[int] = None) -> None:
        """Record one executed micro-batch of ``rows`` coalesced rows.

        ``queue_depth`` is the number of requests still waiting when the
        batch was formed — the scheduler metric that, next to the batch fill,
        says whether the server is keeping up or falling behind.
        """
        with self._lock:
            self.batches += 1
            self.batch_rows += int(rows)
            if queue_depth is not None:
                depth = int(queue_depth)
                self._queue_depth_sum += depth
                self._queue_depth_samples += 1
                if depth > self.queue_depth_max:
                    self.queue_depth_max = depth

    @property
    def completed(self) -> int:
        """Number of requests that received a response."""
        with self._lock:
            return len(self._latencies)

    # ------------------------------------------------------------------ #
    def snapshot(self, window_seconds: Optional[float] = None) -> Dict[str, float]:
        """Counters, percentiles, and throughput as one plain dict.

        ``throughput_rps`` divides completed requests by ``window_seconds``
        when given, otherwise by the time since this collector was created.
        """
        with self._lock:
            latencies = list(self._latencies)
            completed = len(latencies)
            elapsed = (
                float(window_seconds)
                if window_seconds is not None
                else max(time.monotonic() - self._started, 1e-9)
            )
            report: Dict[str, float] = {
                "completed": float(completed),
                "rejected": float(self.rejected),
                "timed_out": float(self.timed_out),
                "failed": float(self.failed),
                "batches": float(self.batches),
                "mean_batch_rows": (
                    self.batch_rows / self.batches if self.batches else 0.0
                ),
                "queue_depth_max": float(self.queue_depth_max),
                "queue_depth_mean": (
                    self._queue_depth_sum / self._queue_depth_samples
                    if self._queue_depth_samples
                    else 0.0
                ),
                "throughput_rps": completed / elapsed,
            }
        report.update(latency_summary(latencies))
        return report


class ServerStats:
    """Two-level accounting: per-model distributions plus the fleet total.

    A fleet member's queue is counted on ``(for_model(name), fleet)``, so
    every sample lands in that model's :class:`LatencyStats` *and* the
    fleet-wide one, and ``snapshot()`` reports p50/p95/p99 at both
    granularities from one pass over the traffic.  Model collectors are
    created on first touch — the router registers models dynamically, and a
    model that never saw traffic still deserves a (zeroed) row in the report.

    Example::

        stats = ServerStats()
        for collector in (stats.for_model("mlp-a"), stats.fleet):
            collector.record(0.004)
        snap = stats.snapshot()
        assert snap["fleet"]["completed"] == 1
        assert snap["models"]["mlp-a"]["completed"] == 1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.fleet = LatencyStats()
        self._models: Dict[str, LatencyStats] = {}

    def for_model(self, model: str) -> LatencyStats:
        """The named model's collector (created on first use)."""
        with self._lock:
            if model not in self._models:
                self._models[model] = LatencyStats()
            return self._models[model]

    # ------------------------------------------------------------------ #
    def snapshot(self, window_seconds: Optional[float] = None) -> Dict[str, Dict]:
        """``{"fleet": {...}, "models": {name: {...}}}`` — plain dicts."""
        with self._lock:
            models = dict(self._models)
        return {
            "fleet": self.fleet.snapshot(window_seconds=window_seconds),
            "models": {
                name: stats.snapshot(window_seconds=window_seconds)
                for name, stats in sorted(models.items())
            },
        }
