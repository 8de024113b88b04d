"""The telemetry subsystem: spans, metrics, schema, and cross-process traces.

Covers the tentpole contracts of ``repro.telemetry``:

* the recorder — span nesting/parent links, interleaved ``begin``/``end``,
  bounded buffers, drain/ingest, and loadable Chrome + JSONL exports;
* the metrics registry — counters/gauges/histograms, live-stats collectors,
  Prometheus text exposition, and the unified snapshot schema that
  ``ModelServer.metrics()`` / ``FleetRouter.metrics()`` validate against;
* cross-process collection — an ``Experiment.run(pool="process")``
  produces one merged trace holding parent *and* child-process spans, and a
  SIGKILLed child drops its buffer without ever tearing the parent's
  timeline;
* the observability satellites — idempotent ``set_verbosity`` and
  contextual log records.
"""

from __future__ import annotations

import io
import json
import logging
import os
import pickle
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Budget,
    Experiment,
    RetryPolicy,
    ShardParallelBackend,
    serve,
    serve_fleet,
)
from repro.data import DataLoader, make_classification
from repro.exceptions import ConfigurationError, MemoryBudgetError
from repro.memory import ResidencyState, SpillManager, SpillStats
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.selection import SearchSpace
from repro.serving import ModelRegistry, ModelServer, Replica
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils import get_log_context, get_logger, log_context, set_verbosity

from _schema import (
    LATENCY_SNAPSHOT_KEYS,
    SchemaError,
    assert_monotonic,
    validate_fleet_metrics,
    validate_latency_snapshot,
    validate_registry_snapshot,
)

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)


def _build_trainable(trial):
    width = int(trial.get("width", 16))
    config = FeedForwardConfig(input_dim=8, hidden_dims=(width,), num_classes=3)
    model = FeedForwardNetwork(config, seed=0)
    optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
    loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=0)
    return model, optimizer, loader


def _build_plain():
    config = FeedForwardConfig(input_dim=8, hidden_dims=(16,), num_classes=3)
    return FeedForwardNetwork(config, seed=0)


class _KillOnceBuilder:
    """Trial builder whose first build of ``victim`` SIGKILLs its child.

    A marker file gates the kill, so the retried attempt builds normally.
    """

    def __init__(self, marker: Path, victim: str):
        self.marker = str(marker)
        self.victim = victim

    def __call__(self, trial):
        if trial.trial_id == self.victim and not Path(self.marker).exists():
            Path(self.marker).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return _build_trainable(trial)


def _fleet_builder(name):
    return _build_plain()


def _arrays(rows: int = 4):
    rng = np.random.default_rng(7)
    return {"features": rng.normal(size=(rows, 8)).astype(np.float64)}


# --------------------------------------------------------------------- #
# Recorder
# --------------------------------------------------------------------- #
class TestRecorder:
    def test_nested_spans_link_to_their_parent(self):
        tel = Telemetry()
        with tel.span("outer", cat="t"):
            with tel.span("inner", cat="t", detail=1):
                pass
        inner, outer = tel.events()
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["args"] == {"detail": 1}
        assert inner["ph"] == "X" and inner["dur"] >= 0
        assert inner["pid"] == os.getpid()

    def test_begin_end_interleaves_without_stacking(self):
        # Two models' steps overlap on one thread: begin() must not make
        # the second span a child of the first.
        tel = Telemetry()
        a = tel.begin("step", cat="t", model="a")
        b = tel.begin("step", cat="t", model="b")
        tel.end(a)
        tel.end(b)
        first, second = tel.events()
        assert first["parent"] is None and second["parent"] is None

    def test_begin_adopts_the_enclosing_span(self):
        tel = Telemetry()
        with tel.span("epoch", cat="t"):
            token = tel.begin("step", cat="t")
            tel.end(token)
        step, epoch = tel.events()
        assert step["parent"] == epoch["id"]

    def test_instant_events(self):
        tel = Telemetry()
        tel.event("request.submit", cat="serving", rows=4)
        (event,) = tel.events()
        assert event["ph"] == "i"
        assert event["args"] == {"rows": 4}

    def test_buffer_is_bounded_and_counts_drops(self):
        tel = Telemetry(max_events=2)
        for index in range(5):
            tel.event(f"e{index}")
        assert len(tel.events()) == 2
        assert tel.dropped == 3

    def test_drain_clears_and_ingest_merges(self):
        child = Telemetry()
        with child.span("trial", cat="t"):
            pass
        shipped = child.drain()
        assert child.events() == []
        parent = Telemetry()
        parent.ingest(shipped)
        (event,) = parent.events()
        assert event["name"] == "trial"

    def test_chrome_trace_loads_and_is_relative_microseconds(self, tmp_path):
        tel = Telemetry()
        with tel.span("outer", cat="t"):
            tel.event("mark", cat="t")
        path = tel.export_chrome_trace(tmp_path / "trace.json")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        rows = doc["traceEvents"]
        # one process_name metadata row + the two events
        assert [row["ph"] for row in rows] == ["M", "i", "X"]
        for row in rows[1:]:
            assert row["ts"] >= 0.0  # relative to the earliest event

    def test_jsonl_export_round_trips(self, tmp_path):
        tel = Telemetry()
        with tel.span("outer", cat="t"):
            pass
        path = tel.export_jsonl(tmp_path / "events.jsonl")
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert [line["name"] for line in lines] == ["outer"]
        assert lines[0]["ts"] == 0.0

    def test_null_telemetry_is_a_picklable_noop_singleton(self):
        assert NULL_TELEMETRY.enabled is False
        assert pickle.loads(pickle.dumps(NULL_TELEMETRY)) is NULL_TELEMETRY
        with NULL_TELEMETRY.span("anything", whatever=1):
            pass
        NULL_TELEMETRY.end(NULL_TELEMETRY.begin("x"))
        NULL_TELEMETRY.counter("c")
        assert NULL_TELEMETRY.events() == []
        assert NULL_TELEMETRY.prometheus_text() == ""

    def test_live_recorder_refuses_to_pickle(self):
        # Recorders hold locks; the process boundary is crossed with an
        # enabled *flag* plus drain/ingest, never the object.
        with pytest.raises(TypeError):
            pickle.dumps(Telemetry())


# --------------------------------------------------------------------- #
# Metrics registry + schema
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counters_are_monotonic(self):
        tel = Telemetry()
        tel.counter("trials.completed")
        tel.counter("trials.completed", 2)
        assert tel.metrics_snapshot()["counters"]["trials.completed"] == 3.0
        with pytest.raises(ValueError):
            tel.counter("trials.completed", -1)

    def test_gauges_and_histograms(self):
        tel = Telemetry()
        tel.gauge("queue.depth", 5)
        for value in (1.0, 2.0, 3.0, 4.0):
            tel.observe("latency", value)
        snap = tel.metrics_snapshot()
        assert snap["gauges"]["queue.depth"] == 5.0
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 4 and hist["min"] == 1.0 and hist["max"] == 4.0
        validate_registry_snapshot(snap)

    def test_collectors_absorb_live_stats(self):
        tel = Telemetry()
        server = serve(_build_plain(), replicas=1, max_batch_size=4, name="demo")
        try:
            server.request(_arrays())
        finally:
            server.stop()
        tel.register_collector("server.demo", server.metrics)
        snap = tel.metrics_snapshot()
        assert snap["collectors"]["server.demo"]["completed"] == 1.0
        validate_registry_snapshot(snap)

    def test_raising_collector_degrades_to_an_error_entry(self):
        tel = Telemetry()
        tel.register_collector("bad", lambda: 1 / 0)
        snap = tel.metrics_snapshot()
        assert "ZeroDivisionError" in snap["collectors"]["bad"]["error"]

    def test_prometheus_text_exposition(self):
        tel = Telemetry()
        tel.counter("trials.completed", 3)
        tel.gauge("queue.depth", 2)
        tel.observe("latency", 0.5)
        tel.register_collector("pool", lambda: {"workers": 4, "nested": {"x": 1}})
        text = tel.prometheus_text()
        assert "# TYPE repro_trials_completed counter" in text
        assert "repro_trials_completed 3" in text
        assert "repro_queue_depth 2" in text
        assert "repro_latency_count 1" in text
        assert "repro_pool_workers 4" in text
        assert "repro_pool_nested_x 1" in text

    def test_assert_monotonic_catches_regressions(self):
        before = {"completed": 1.0, "failed": 0.0}
        after = {"completed": 2.0, "failed": 0.0}
        assert_monotonic(before, after)
        with pytest.raises(SchemaError):
            assert_monotonic(after, before)

    def test_latency_schema_rejects_missing_and_extra_keys(self):
        good = ModelServer([Replica.resident(_build_plain())]).metrics()
        validate_latency_snapshot(good)
        assert set(good) == set(LATENCY_SNAPSHOT_KEYS)
        with pytest.raises(SchemaError):
            validate_latency_snapshot({k: v for k, v in good.items() if k != "completed"})
        with pytest.raises(SchemaError):
            validate_latency_snapshot(dict(good, extra=1.0))
        with pytest.raises(SchemaError):
            validate_latency_snapshot(dict(good, completed=-1.0))

    def test_server_metrics_validate_against_the_schema(self):
        server = serve(_build_plain(), replicas=1, max_batch_size=4, name="schema")
        try:
            before = server.metrics()
            validate_latency_snapshot(before)
            for _ in range(3):
                server.request(_arrays())
            after = server.metrics()
            validate_latency_snapshot(after)
            assert_monotonic(before, after)
            assert after["completed"] == 3.0
        finally:
            server.stop()

    def test_fleet_metrics_validate_against_the_schema(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("mlp-a", _build_plain())
        router = serve_fleet(registry, _fleet_builder, replicas=1, max_batch_size=4)
        try:
            router.request("mlp-a", _arrays())
            metrics = router.metrics()
            validate_fleet_metrics(metrics)
            validate_latency_snapshot(metrics["fleet"])
            validate_latency_snapshot(metrics["models"]["mlp-a"])
        finally:
            router.stop()


# --------------------------------------------------------------------- #
# Instrumented components (single-process)
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_spill_manager_records_lease_evict_fetch(self):
        tel = Telemetry()
        a = np.zeros(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        manager = SpillManager({"dev0": 16}, prefetch=True, telemetry=tel)
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        manager.register(("m", 1), "dev0", 16, lambda: [b])
        with tel.span("caller") as caller:
            with manager.lease(("m", 0)):
                pass
            with manager.lease(("m", 1)):  # evicts shard 0
                pass
            # Shard 1 was written, so the transfer worker copies it to host
            # and then restores shard 0.
            assert manager.prefetch(("m", 0))
            with manager.lease(("m", 0)):  # joins the prefetch
                pass
        manager.close()
        # Every event, in commit order: name, cat, attrs, and its parent —
        # the caller's span on the leasing thread, none on the transfer
        # worker; a lease is a flat begin/end token, so the fetch and evict
        # it triggers are its siblings, not its children.
        parents = {caller.span_id: "caller", None: None}
        recorded = [
            (e["name"], e["cat"], e["args"], parents[e["parent"]])
            for e in tel.events()
        ]
        m0, m1 = str(("m", 0)), str(("m", 1))
        assert recorded == [
            ("spill.fetch", "memory", {"key": m0, "bytes": 16}, "caller"),
            ("spill.lease", "memory", {"key": m0}, "caller"),
            ("spill.evict", "memory", {"key": m0, "bytes": 16}, "caller"),
            ("spill.fetch", "memory", {"key": m1, "bytes": 16}, "caller"),
            ("spill.lease", "memory", {"key": m1}, "caller"),
            ("spill.evict", "memory", {"key": m1, "bytes": 16}, None),
            ("spill.prefetch", "memory", {"key": m0, "bytes": 16}, None),
            ("spill.lease", "memory", {"key": m0}, "caller"),
            ("caller", "repro", {}, None),
        ]

    def test_failed_lease_span_records_the_error_type(self):
        tel = Telemetry()
        manager = SpillManager({"dev0": 16}, telemetry=tel)
        manager.register(("m", 0), "dev0", 17, lambda: [])  # cannot ever fit
        with pytest.raises(MemoryBudgetError):
            with manager.lease(("m", 0)):
                pass
        manager.register(("m", 1), "dev0", 16, lambda: [])
        with pytest.raises(KeyError):
            with manager.lease(("m", 1)):
                raise KeyError("body")
        leases = [e["args"] for e in tel.events() if e["name"] == "spill.lease"]
        assert leases == [
            {"key": str(("m", 0)), "error": "MemoryBudgetError"},
            {"key": str(("m", 1)), "error": "KeyError"},
        ]
        assert manager.residency(("m", 1)) is ResidencyState.RESIDENT
        manager.evict(("m", 1))  # the raising body's lease was released

    def test_failed_restore_span_records_the_error_type(self):
        tel = Telemetry()
        a = np.arange(4, dtype=np.float32)
        view = [[a]]
        manager = SpillManager({"dev0": 64}, prefetch=True, telemetry=tel)
        manager.register(("m", 0), "dev0", 16, lambda: view[0])
        with manager.lease(("m", 0)):
            pass
        manager.evict(("m", 0))
        # Two live arrays against a one-array stash: the restore raises.
        view[0] = [a, a]
        assert manager.prefetch(("m", 0))
        with pytest.raises(ConfigurationError):
            manager.acquire(("m", 0))
        manager.close()
        (span,) = [e for e in tel.events() if e["name"] == "spill.prefetch"]
        assert span["args"] == {
            "key": str(("m", 0)), "bytes": 16, "error": "ConfigurationError",
        }

    def test_experiment_trace_covers_trial_epoch_step(self):
        tel = Telemetry()
        result = Experiment(
            space=SearchSpace({"width": [16, 32]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=1),
        ).run(
            backend=ShardParallelBackend(builder=_build_trainable, num_devices=2),
            workers=2,
            telemetry=tel,
        )
        assert len(result.trials) == 2
        events = tel.events()
        names = {event["name"] for event in events}
        assert {"experiment", "trial", "epoch", "step"} <= names
        spans = {event["id"]: event for event in events}
        # Every step chains up to its trial through the parent links.  (The
        # experiment span lives on the caller's thread; trials run on pool
        # threads, so the chain's root is the trial, not the experiment.)
        step = next(e for e in events if e["name"] == "step")
        chain = []
        while step is not None:
            chain.append(step["name"])
            step = spans.get(step["parent"])
        assert chain == ["step", "epoch", "trial"]
        # ...and the runtime counted the completions.
        counters = tel.metrics_snapshot()["counters"]
        assert counters["runtime.trials.completed"] == 2.0

    def test_serve_records_submit_batch_forward(self):
        tel = Telemetry()
        server = serve(
            _build_plain(), replicas=1, max_batch_size=4, name="traced",
            telemetry=tel,
        )
        try:
            server.request(_arrays())
        finally:
            server.stop()
        events = tel.events()
        names = {event["name"] for event in events}
        assert {"request.submit", "serve.batch", "serve.forward"} <= names
        forward = next(e for e in events if e["name"] == "serve.forward")
        batch = next(e for e in events if e["name"] == "serve.batch")
        assert forward["parent"] == batch["id"]
        # The server's stats registered as a collector under its name.
        snap = tel.metrics_snapshot()
        validate_latency_snapshot(snap["collectors"]["server.traced"])

    def test_spilled_server_registers_its_spill_collector(self):
        tel = Telemetry()
        model = _build_plain()
        budget = max(
            sum(p.data.nbytes for p in model.block_parameters(block))
            for block in range(model.num_blocks())
        )
        server = serve(
            model, replicas=1, max_batch_size=4, memory_budget=budget, name="sp",
            telemetry=tel,
        )
        try:
            for _ in range(5):
                server.request(_arrays())
            manager = server.replicas[0].manager
            row = tel.metrics_snapshot()["collectors"]["spill.sp/replica0"]
            counters = manager.stats.as_dict()
        finally:
            server.stop()
        assert {key: row[key] for key in counters} == counters
        assert counters["evictions"] > 0 and counters["demand_fetches"] > 0
        assert 0 < row["resident_bytes"] <= budget
        assert row["registered_bytes"] == sum(p.data.nbytes for p in model.parameters())

    def test_each_spilled_replica_is_its_own_collector(self):
        tel = Telemetry()
        model = _build_plain()
        budget = sum(p.data.nbytes for p in model.parameters())
        server = serve(
            _build_plain, replicas=2, max_batch_size=4, memory_budget=budget,
            name="pair", telemetry=tel,
        )
        try:
            server.request(_arrays())
            collectors = tel.metrics_snapshot()["collectors"]
        finally:
            server.stop()
        spill_rows = {name for name in collectors if name.startswith("spill.")}
        assert spill_rows == {"spill.pair/replica0", "spill.pair/replica1"}
        # One request ran on one replica: the rows are the replicas' own.
        fetched = sorted(collectors[name]["bytes_fetched"] for name in spill_rows)
        assert fetched[0] == 0 and fetched[1] > 0

    def test_router_registers_its_spill_collector(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for name in ("mlp-a", "mlp-b"):
            registry.publish(name, _build_plain())
        one = sum(p.data.nbytes for p in _build_plain().parameters())
        tel = Telemetry()
        router = serve_fleet(
            registry, _fleet_builder, replicas=1, max_batch_size=4,
            memory_budget=one, name="fl", telemetry=tel,
        )
        try:
            for name in ("mlp-a", "mlp-b", "mlp-a"):
                router.request(name, _arrays())
            collectors = tel.metrics_snapshot()["collectors"]
            residency = router.metrics()["residency"]
        finally:
            router.stop()
        assert {"router.fl", "spill.fl"} <= set(collectors)
        row = collectors["spill.fl"]
        # The collector and the residency row carry every counter, alike.
        counters = {key: row[key] for key in SpillStats().as_dict()}
        assert {key: residency[key] for key in counters} == counters
        assert counters["evictions"] >= 2
        assert residency["restores"] == (
            counters["demand_fetches"] + counters["prefetches_completed"]
        )
        assert row["registered_bytes"] == residency["registered_bytes"] == 2 * one

    def test_disabled_telemetry_records_nothing(self):
        server = serve(_build_plain(), replicas=1, max_batch_size=4)
        try:
            server.request(_arrays())
        finally:
            server.stop()
        assert server.telemetry is NULL_TELEMETRY
        assert server.telemetry.events() == []


# --------------------------------------------------------------------- #
# Cross-process collection
# --------------------------------------------------------------------- #
class TestCrossProcess:
    def test_process_pool_experiment_trace_has_child_spans(self, tmp_path):
        tel = Telemetry()
        result = Experiment(
            space=SearchSpace({"width": [16, 32]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=1),
        ).run(
            backend=ShardParallelBackend(builder=_build_trainable, num_devices=2),
            workers=2,
            pool="process",
            telemetry=tel,
        )
        assert len(result.trials) == 2
        events = tel.events()
        parent_pid = os.getpid()
        child = [e for e in events if e["pid"] != parent_pid]
        assert {e["name"] for e in child} >= {"trial", "epoch", "step"}
        assert {e["name"] for e in events if e["pid"] == parent_pid} >= {"experiment"}
        # Child spans keep their own process id and link trial→epoch→step.
        spans = {event["id"]: event for event in events}
        step = next(e for e in child if e["name"] == "step")
        chain = [step["name"]]
        while spans.get(step["parent"]) is not None:
            step = spans[step["parent"]]
            chain.append(step["name"])
        assert chain == ["step", "epoch", "trial"]
        # The merged timeline exports to a loadable Chrome trace with both
        # process tracks present.
        path = tel.export_chrome_trace(tmp_path / "trace.json")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        tracks = {
            row["pid"] for row in doc["traceEvents"] if row["ph"] == "M"
        }
        assert parent_pid in tracks and len(tracks) >= 2

    def test_sigkilled_trial_never_tears_the_trace(self, tmp_path):
        tel = Telemetry()
        result = Experiment(
            space=SearchSpace({"width": [16, 32]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=1),
        ).run(
            backend=ShardParallelBackend(
                builder=_KillOnceBuilder(tmp_path / "killed", victim="grid-1"),
                num_devices=2,
            ),
            workers=2,
            pool="process",
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            telemetry=tel,
        )
        assert (tmp_path / "killed").exists()  # the kill really fired
        assert not result.failures
        # The killed child's buffered spans are simply gone; whatever made
        # it into the parent is whole, and the trace still loads.
        events = tel.events()
        for event in events:
            assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        # The retried attempt ran in a fresh child and its spans arrived.
        child_trials = {
            event["args"]["trial_id"]
            for event in events
            if event["name"] == "trial" and event["pid"] != os.getpid()
        }
        assert child_trials == {"grid-0", "grid-1"}
        path = tel.export_chrome_trace(tmp_path / "trace.json")
        with open(path, encoding="utf-8") as handle:
            json.load(handle)


# --------------------------------------------------------------------- #
# Satellite: logging
# --------------------------------------------------------------------- #
class TestLogging:
    def _managed_handlers(self):
        root = logging.getLogger("repro")
        return [h for h in root.handlers if getattr(h, "_repro_managed", False)]

    def test_set_verbosity_is_idempotent(self):
        set_verbosity("INFO")
        set_verbosity("INFO")
        set_verbosity("DEBUG")
        assert len(self._managed_handlers()) == 1
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_set_verbosity_rejects_unknown_levels(self):
        with pytest.raises(ConfigurationError):
            set_verbosity("LOUD")

    def test_log_context_reaches_the_record(self):
        stream = io.StringIO()
        set_verbosity("INFO", stream=stream)
        logger = get_logger("test")
        with log_context(trial_id="grid-3", model="mlp"):
            assert get_log_context() == {"trial_id": "grid-3", "model": "mlp"}
            logger.info("inside")
        logger.info("outside")
        inside, outside = stream.getvalue().strip().splitlines()
        assert "[trial_id=grid-3 model=mlp]" in inside
        assert "trial_id" not in outside
        assert get_log_context() == {}

    def test_log_context_nests_and_restores(self):
        with log_context(trial_id="a"):
            with log_context(request_id="r1"):
                assert get_log_context() == {"trial_id": "a", "request_id": "r1"}
            assert get_log_context() == {"trial_id": "a"}

    def test_log_context_is_thread_local(self):
        seen = {}

        def worker():
            seen["context"] = get_log_context()

        with log_context(trial_id="parent-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["context"] == {}
