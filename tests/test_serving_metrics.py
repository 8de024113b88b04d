"""Serving metrics: one bounded store per front-end, and rows that add up.

Every serving front-end counts its request outcomes in the
:class:`~repro.telemetry.MetricsRegistry` its batcher owns, and every
``metrics()`` row is a view over it.  The contracts under test:

* **bounded** — recording 10⁵ request outcomes in a server's or a
  two-model router's batcher does not grow the process's traced memory;
* **accurate** — each :class:`~repro.telemetry.Histogram` percentile lies
  within the stated relative error α of the exact order statistics around
  it, on fixed samples, and a merge is the histogram of the pooled samples;
* **derived, not recorded twice** — a router's fleet row is the sum of its
  model rows, and each model's four outcomes (completed, rejected, timed
  out, failed) account for every request submitted;
* **one throughput clock** — ``throughput_rps`` counts from ``start()``
  to ``stop()`` for the fleet row and every model row alike.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.api import serve
from repro.exceptions import RequestTimeoutError, ServerOverloadedError, ServingError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.serving import FleetRouter, InferenceRequest
from repro.serving.batcher import Assignment
from repro.telemetry import Histogram, MetricsRegistry

#: the relative error the histogram states (docs/observability.md)
ALPHA = 0.005

CONFIG = FeedForwardConfig(input_dim=4, hidden_dims=(8,), num_classes=2)
ROW = np.zeros((1, 4), dtype=np.float32)

#: latency rows a counter test compares between the fleet and its models
COUNTERS = ("completed", "rejected", "timed_out", "failed", "batches")


def make_model(seed: int = 0) -> FeedForwardNetwork:
    return FeedForwardNetwork(CONFIG, seed=seed)


# --------------------------------------------------------------------------- #
# The histogram: error bound and merge
# --------------------------------------------------------------------------- #
def _samples():
    rng = np.random.default_rng(3)
    return {
        "lognormal": rng.lognormal(mean=-6.0, sigma=1.5, size=10_000),
        "uniform": rng.uniform(0.0005, 0.25, size=10_000),
        "single": np.array([0.0123]),
        "two_far_apart": np.array([3e-6, 7.5]),
        "outside_dense_range": np.concatenate(
            [rng.uniform(1e-12, 3e-12, size=50), rng.uniform(2e5, 9e6, size=50), [0.0]]
        ),
    }


SAMPLES = _samples()


def _histogram(values) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogram:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_percentiles_within_alpha_of_the_exact_order_statistics(self, name):
        values = SAMPLES[name]
        summary = _histogram(values).snapshot()
        for q in (50, 95, 99):
            lower = np.percentile(values, q, method="lower")
            higher = np.percentile(values, q, method="higher")
            assert lower * (1 - ALPHA) <= summary[f"p{q}"] <= higher * (1 + ALPHA), (
                name, q, lower, summary[f"p{q}"], higher,
            )

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_count_sum_min_max_mean_are_exact(self, name):
        values = SAMPLES[name]
        summary = _histogram(values).snapshot()
        assert summary["count"] == len(values)
        assert summary["min"] == values.min() and summary["max"] == values.max()
        assert summary["sum"] == pytest.approx(values.sum(), rel=1e-12)
        assert summary["mean"] == pytest.approx(values.mean(), rel=1e-12)

    def test_merge_equals_the_histogram_of_the_concatenated_samples(self):
        parts = [SAMPLES["lognormal"], SAMPLES["uniform"], SAMPLES["outside_dense_range"]]
        merged = Histogram()
        for part in parts:
            merged.merge(_histogram(part))
        pooled = _histogram(np.concatenate(parts))
        assert merged._buckets == pooled._buckets
        assert (merged.count, merged.min, merged.max) == (pooled.count, pooled.min, pooled.max)
        assert merged.snapshot()["p99"] == pooled.snapshot()["p99"]

    def test_registry_batch_record_matches_one_observation_at_a_time(self):
        values = SAMPLES["lognormal"][:500]
        batched, single = MetricsRegistry(), MetricsRegistry()
        batched.record(counters={"n": len(values)}, observations={"x": values})
        for value in values:
            single.counter("n")
            single.observe("x", value)
        assert batched.counters() == single.counters()
        assert batched.merged(["x"])._buckets == single.merged(["x"])._buckets

    def test_concurrent_batch_records_lose_no_update(self):
        registry = MetricsRegistry()
        threads, batches, values = 8, 500, [0.001, 0.002, 0.004, 0.008]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker():
                for _ in range(batches):
                    registry.record(
                        counters={"completed": len(values), "batches": 1},
                        observations={"latency_s": values, "depth": (1,)},
                    )

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert registry.counters() == {
            "completed": threads * batches * len(values), "batches": threads * batches,
        }
        latency = registry.merged(["latency_s"])
        assert latency.count == threads * batches * len(values)
        assert sum(latency._buckets.values()) == latency.count
        assert registry.merged(["depth"]).count == threads * batches

    def test_negative_observations_raise(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1e-9)
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.record(observations={"x": [0.1, -0.1]})
        assert registry.snapshot()["histograms"] == {}  # nothing half-recorded

    def test_memory_depends_on_the_range_not_the_count(self):
        histogram = Histogram()
        rng = np.random.default_rng(0)
        for _ in range(20):
            histogram.merge(_histogram(rng.uniform(0.001, 0.01, size=1000)))
        # One decade of values: ~230 buckets, however many observations.
        assert histogram.count == 20_000
        assert len(histogram._buckets) <= 240


# --------------------------------------------------------------------------- #
# Bounded store under traffic
# --------------------------------------------------------------------------- #
REQUESTS = 100_000
WARM_UP = 4_096
BATCH = 16
#: the batch completion times the store sees, cycled; each batch's requests
#: were submitted 0..15 ms before, so the latencies span a fixed range and
#: every histogram bucket the run touches already exists after warm-up
FINISHED = np.geomspace(1e-4, 1.0, 64)
#: a rejection, a timeout or a failure is counted beside every batch
FAILURES = ("rejected", "timed_out", "failed")


def _memory_growth(batcher) -> int:
    """Traced bytes retained by recording ``REQUESTS`` outcomes, after warm-up.

    The batcher's registry is driven the way its serve loop drives it — one
    :meth:`complete` per answered batch, one :meth:`count` per failure — but
    without forwards, so only the store's own growth is measured.
    """
    entries = batcher.entries()
    requests = [
        InferenceRequest(arrays={}, rows=1, submitted=-1e-3 * index)
        for index in range(BATCH)
    ]

    def run(count):
        for index in range(count // (BATCH * len(entries))):
            for entry in entries:
                work = Assignment(entry, requests, BATCH, index % 7)
                batcher.complete(work, FINISHED[index % len(FINISHED)])
                batcher.count(entry, FAILURES[index % len(FAILURES)], 1)

    tracemalloc.start()
    try:
        run(WARM_UP)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(REQUESTS)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestBoundedStore:
    def test_server_records_1e5_requests_in_bounded_memory(self):
        server = serve(make_model(), max_batch_size=16, name="bounded")
        try:
            server.request(ROW)  # one request through the whole serve path
            growth = _memory_growth(server._batcher)
        finally:
            server.stop()
        assert server.metrics()["completed"] == 1 + WARM_UP + REQUESTS
        assert growth < 256 * 1024, growth

    def test_router_records_1e5_requests_in_bounded_memory(self):
        router = FleetRouter(replicas=2, max_batch_size=16, watchdog_interval_s=None)
        router.add_model("a", make_model(1))
        router.add_model("b", make_model(2))
        try:
            router.start()
            for name in ("a", "b"):
                router.request(name, ROW)
            growth = _memory_growth(router._batcher)
        finally:
            router.stop()
        assert router.metrics()["fleet"]["completed"] == 2 + WARM_UP + REQUESTS
        assert growth < 256 * 1024, growth


# --------------------------------------------------------------------------- #
# Counters add up
# --------------------------------------------------------------------------- #
class _GatedModel(FeedForwardNetwork):
    """A model whose forwards each wait for a permit the test hands out.

    The gate sits in the first block, which every forward runs once: fleet
    members run blocks through their executor, never ``forward``.
    """

    def __init__(self):
        super().__init__(CONFIG, seed=7)
        self.entered = threading.Semaphore(0)
        self.permits = threading.Semaphore(0)

    def run_block(self, index, state, batch):
        if index == 0:
            self.entered.release()
            assert self.permits.acquire(timeout=30), "the test never released the forward"
        return super().run_block(index, state, batch)


class TestCountersAddUp:
    def test_fleet_row_is_the_sum_of_model_rows_and_outcomes_cover_submissions(self):
        gated = _GatedModel()
        router = FleetRouter(
            replicas=1, max_batch_size=1, max_queue=2, watchdog_interval_s=None
        )
        router.add_model("a", gated)
        router.add_model("b", make_model())
        submitted = {"a": 0, "b": 0}

        def submit(model, timeout_ms=None):
            submitted[model] += 1
            return router.submit(model, ROW, timeout_ms=timeout_ms)

        def hold_the_worker():
            held = submit("a")
            assert gated.entered.acquire(timeout=30)
            return held

        router.start()
        # Completed: one plain request each.
        gated.permits.release()
        for model in submitted:
            submit(model).result(timeout=30)
        assert gated.entered.acquire(timeout=30)
        # Timed out: queued behind a held forward, their deadline already
        # past when the worker next asks for work.
        held = hold_the_worker()
        expiring = [submit(model, timeout_ms=1e-6) for model in submitted]
        gated.permits.release()
        held.result(timeout=30)
        for response in expiring:
            with pytest.raises(RequestTimeoutError, match="expired"):
                response.result(timeout=30)
        # Rejected, then failed: fill both queues behind a held forward,
        # overflow each once, and stop without draining.
        held = hold_the_worker()
        queued = [submit(model) for model in submitted for _ in range(2)]
        for model in submitted:
            with pytest.raises(ServerOverloadedError):
                submit(model)
        stopper = threading.Thread(target=router.stop, kwargs={"drain": False})
        stopper.start()
        for response in queued:
            with pytest.raises(ServingError, match="stopped"):
                response.result(timeout=30)
        gated.permits.release()  # the in-flight batch completes either way
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        held.result(timeout=0)

        report = router.metrics()
        models = report["models"]
        expected = {
            "a": {"completed": 3, "timed_out": 1, "rejected": 1, "failed": 2},
            "b": {"completed": 1, "timed_out": 1, "rejected": 1, "failed": 2},
        }
        for model, outcomes in expected.items():
            row = models[model]
            assert {key: row[key] for key in outcomes} == outcomes
            assert sum(row[key] for key in outcomes) == submitted[model]
            assert row["batches"] == row["completed"]  # one request per batch
            assert row["queue_depth_max"] == 0.0       # depth is fleet-wide
        for key in COUNTERS:
            assert report["fleet"][key] == sum(row[key] for row in models.values()), key
        assert report["fleet"]["batches"] == report["scheduler"]["batches_dispatched"]
        again = router.metrics()["models"]["a"]  # the same row, read again
        for key in COUNTERS:
            assert again[key] == models["a"][key]


# --------------------------------------------------------------------------- #
# One throughput clock
# --------------------------------------------------------------------------- #
class TestThroughputClock:
    def test_fleet_and_model_rows_count_from_start(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        router = FleetRouter(replicas=1, watchdog_interval_s=None)
        router.add_model("a", make_model(1))
        router.add_model("b", make_model(2))
        clock[0] += 50.0  # loading models takes a while before serving starts
        with router:
            for model in ("a", "a", "a", "b"):
                router.request(model, ROW)
            clock[0] += 2.0
        # Read after stop(): every completion is recorded by then.
        report = router.metrics()
        again = router.metrics()["models"]["a"]
        assert report["fleet"]["throughput_rps"] == 4 / 2.0
        assert report["models"]["a"]["throughput_rps"] == 3 / 2.0
        assert report["models"]["b"]["throughput_rps"] == 1 / 2.0
        assert again["throughput_rps"] == 3 / 2.0

    def test_server_counts_from_start(self, monkeypatch):
        clock = [1000.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        server = serve(make_model(), max_wait_ms=0.0, start=False)
        clock[0] += 50.0
        with server:
            for _ in range(3):
                server.request(ROW)
            clock[0] += 4.0
        assert server.metrics()["throughput_rps"] == 3 / 4.0

    def test_throughput_is_frozen_once_stopped(self):
        """The clock stops with the serve loops: a stopped front-end's
        ``throughput_rps`` reads the same however long after ``stop()``."""
        server = serve(make_model(), max_wait_ms=0.0)
        router = FleetRouter(replicas=1, watchdog_interval_s=None)
        router.add_model("a", make_model(1))
        with server, router:
            for _ in range(5):
                server.request(ROW)
                router.request("a", ROW)
        first = server.metrics()["throughput_rps"], router.metrics()["fleet"]["throughput_rps"]
        time.sleep(0.05)
        second = server.metrics()["throughput_rps"], router.metrics()["fleet"]["throughput_rps"]
        assert first == second
        assert min(first) > 0.0
