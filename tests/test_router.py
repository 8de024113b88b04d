"""The fleet router: exactness under eviction, fairness, and admission.

The contracts under test, in order of importance:

* **fleet == dedicated** — a model served through a shared
  :class:`~repro.serving.FleetRouter` (one pool, one budget, other models
  competing, evictions in flight) answers ``array_equal`` to a dedicated
  single-model :class:`~repro.serving.ModelServer` at the same compute
  geometry — whether the model was resident or evicted when asked;
* **cold models serve** — a budget smaller than any two models forces every
  switch to evict/restore, and responses stay bit-exact through the churn;
* **one model, two forwards at once** — a fleet member is a bound
  one-shard executor, and its forward keeps the chain's state per call, so
  two workers inside one model's forward each get their own answer;
* **weighted-fair, never starved** — under a skewed mix the minority
  model's requests complete interleaved with the majority's, not after;
* **admission is per model** — one model's full queue rejects that model's
  traffic only;
* **API wiring** — ``serve_fleet`` and ``SelectionResult.deploy(router=)``
  land models in a shared fleet.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.data.dataloader import Batch
from repro.exceptions import (
    ConfigurationError,
    ServerOverloadedError,
    ServingError,
)
from repro.memory import SpillManager
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.serving import (
    FleetRouter,
    LoadGenerator,
    ModelRegistry,
    ModelServer,
    Replica,
)
from repro.serving.loadgen import mix_schedule
from repro.training.sharded_trainer import ShardedModelExecutor

CONFIG = FeedForwardConfig(input_dim=16, hidden_dims=(24, 16), num_classes=4)
GEOMETRY = 8  # compute geometry shared by every exactness comparison


def make_model(seed: int = 5) -> FeedForwardNetwork:
    return FeedForwardNetwork(CONFIG, seed=seed)


def model_bytes(model) -> int:
    return sum(p.data.nbytes for p in model.parameters())


def make_fleet(names, router, **add_options):
    for index, name in enumerate(names):
        router.add_model(name, make_model(seed=20 + index), **add_options)
    return router


def dedicated_reference(seed: int, requests):
    """What a dedicated single-model server answers for ``requests``."""
    replica = Replica.resident(make_model(seed=seed))
    return [replica.infer({"features": x}, pad_to=GEOMETRY) for x in requests]


class _SleepyModel(FeedForwardNetwork):
    """A model whose forward takes a configurable wall-clock time.

    The delay sits in the first block, which every forward runs once:
    fleet members run blocks through their executor, never ``forward``.
    """

    def __init__(self, delay_seconds: float, seed: int = 5):
        super().__init__(CONFIG, seed=seed)
        self.delay_seconds = delay_seconds

    def run_block(self, index: int, state, batch: Batch):
        if index == 0:
            time.sleep(self.delay_seconds)
        return super().run_block(index, state, batch)


class _MeetingModel(FeedForwardNetwork):
    """A model whose forwards wait in the first block until two are inside."""

    def __init__(self, seed: int = 5):
        super().__init__(CONFIG, seed=seed)
        self.meeting = threading.Barrier(2)

    def run_block(self, index: int, state, batch: Batch):
        if index == 0:
            self.meeting.wait(timeout=10)
        return super().run_block(index, state, batch)


@pytest.fixture
def requests_32():
    rng = np.random.default_rng(13)
    return [rng.normal(size=(1, 16)).astype(np.float32) for _ in range(32)]


# --------------------------------------------------------------------------- #
# Exactness: fleet == dedicated, resident or evicted
# --------------------------------------------------------------------------- #
class TestFleetExactness:
    def test_mixed_fleet_matches_dedicated_servers(self, requests_32):
        """Four models, budget for ~2.5: every response is bit-identical to a
        dedicated per-model server's, with evictions provably happening and
        ``scrub_evicted`` poisoning any restore the router might skip."""
        names = ["m0", "m1", "m2", "m3"]
        one = model_bytes(make_model())
        references = {
            name: dedicated_reference(20 + index, requests_32)
            for index, name in enumerate(names)
        }
        router = FleetRouter(
            memory_budget=int(one * 2.5),
            replicas=2,
            max_batch_size=GEOMETRY,
            scrub_evicted=True,
            watchdog_interval_s=None,
        )
        make_fleet(names, router)
        with router:
            # Interleave models request by request so residency churns.
            for index, x in enumerate(requests_32):
                for name in names:
                    got = router.request(name, {"features": x})
                    assert np.array_equal(got, references[name][index])
        report = router.metrics()
        assert report["residency"]["evictions"] > 0
        assert report["residency"]["restores"] > 0
        assert report["fleet"]["completed"] == len(requests_32) * len(names)

    def test_registered_bytes_exceed_budget_but_resident_do_not(self):
        one = model_bytes(make_model())
        budget = int(one * 1.5)
        router = FleetRouter(
            memory_budget=budget, replicas=1, watchdog_interval_s=None
        )
        make_fleet(["a", "b", "c"], router)
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            for name in ["a", "b", "c", "a"]:
                router.request(name, {"features": x})
            report = router.metrics()
        assert report["residency"]["registered_bytes"] == 3 * one
        assert report["residency"]["registered_bytes"] > budget
        assert report["residency"]["resident_bytes"] <= budget

    def test_concurrent_traffic_is_exact(self, requests_32):
        """Closed-loop clients hammering all models at once (the E14 shape)."""
        names = ["m0", "m1", "m2", "m3"]
        one = model_bytes(make_model())
        references = {
            name: dedicated_reference(20 + index, requests_32)
            for index, name in enumerate(names)
        }
        router = FleetRouter(
            memory_budget=int(one * 2.5),
            replicas=2,
            max_batch_size=GEOMETRY,
            scrub_evicted=True,
            watchdog_interval_s=None,
        )
        make_fleet(names, router)
        from repro.runtime.pool import ThreadWorkerPool

        def client(name):
            for index, x in enumerate(requests_32):
                got = router.request(name, {"features": x})
                if not np.array_equal(got, references[name][index]):
                    return f"{name}[{index}] diverged"
            return None

        with router:
            with ThreadWorkerPool(len(names)) as pool:
                failures = [
                    f.result() for f in [pool.submit(client, n) for n in names]
                ]
        assert failures == [None] * len(names)


# --------------------------------------------------------------------------- #
# Two forwards of one model at once
# --------------------------------------------------------------------------- #
class TestConcurrentForward:
    def test_two_threads_share_one_bound_executor(self):
        """Two threads inside one bound 2-shard executor's ``forward_only``
        at once, on different inputs: each gets its own input's answer."""
        model = _MeetingModel(seed=20)
        executor = ShardedModelExecutor(model, [(0, 1), (1, model.num_blocks())])
        manager = SpillManager({"dev0": model_bytes(model)}, scrub_evicted=True)
        executor.bind_memory(manager, model_id="m", device_of=lambda _: "dev0")
        rng = np.random.default_rng(3)
        inputs = [rng.normal(size=(GEOMETRY, 16)).astype(np.float32) for _ in range(2)]
        reference = make_model(seed=20)
        expected = [reference.forward(Batch(arrays={"features": x})).data for x in inputs]
        outputs = [None, None]

        def run(index):
            batch = Batch(arrays={"features": inputs[index]})
            outputs[index] = executor.forward_only(batch).data

        threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        manager.close()
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(outputs, expected):
            assert got is not None and np.array_equal(got, want)

    def test_fleet_workers_inside_one_models_forward(self, requests_32):
        """``replicas=2``, one model, one-request batches: both workers are
        inside its forward together, and both answers match a dedicated
        server's."""
        router = FleetRouter(replicas=2, max_batch_size=1, watchdog_interval_s=None)
        router.add_model("m", _MeetingModel(seed=20), compute_batch_size=GEOMETRY)
        expected = dedicated_reference(20, requests_32[:2])
        with router:
            pending = [router.submit("m", {"features": x}) for x in requests_32[:2]]
            got = [response.result(timeout=30) for response in pending]
        for answer, want in zip(got, expected):
            assert np.array_equal(answer, want)


# --------------------------------------------------------------------------- #
# Eviction/restore churn under a minimal budget
# --------------------------------------------------------------------------- #
class TestEvictionChurn:
    def test_budget_smaller_than_any_two_models(self, requests_32):
        """With room for just one model, every switch is an evict+restore —
        the worst case for residency bookkeeping — and answers stay exact."""
        names = ["a", "b", "c"]
        one = model_bytes(make_model())
        references = {
            name: dedicated_reference(20 + index, requests_32[:8])
            for index, name in enumerate(names)
        }
        router = FleetRouter(
            memory_budget=int(one * 1.2),  # < 2 * one: never two resident
            replicas=1,
            max_batch_size=GEOMETRY,
            scrub_evicted=True,
            watchdog_interval_s=None,
        )
        make_fleet(names, router)
        with router:
            for index, x in enumerate(requests_32[:8]):
                for name in names:
                    got = router.request(name, {"features": x})
                    assert np.array_equal(got, references[name][index])
            report = router.metrics()
        # 8 rounds over 3 models with room for 1: nearly every switch evicts.
        assert report["residency"]["evictions"] >= 10
        assert report["residency"]["restores"] >= 10
        assert len(report["residency"]["resident_models"]) <= 1

    def test_models_usable_after_stop(self):
        """stop() restores every model's canonical bytes into its arrays."""
        one = model_bytes(make_model())
        router = FleetRouter(
            memory_budget=int(one * 1.2), replicas=1, watchdog_interval_s=None
        )
        models = {name: make_model(seed=ord(name)) for name in ["a", "b"]}
        originals = {
            name: [p.data.copy() for p in model.parameters()]
            for name, model in models.items()
        }
        for name, model in models.items():
            router.add_model(name, model)
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            router.request("a", {"features": x})
            router.request("b", {"features": x})
        for name, model in models.items():
            for param, original in zip(model.parameters(), originals[name]):
                assert np.array_equal(param.data, original)


# --------------------------------------------------------------------------- #
# Fairness
# --------------------------------------------------------------------------- #
class TestFairness:
    def test_minority_model_is_not_starved_under_skew(self):
        """9:1 traffic skew: the minority model's completions interleave with
        the majority's instead of all landing after them."""
        router = FleetRouter(
            replicas=1,
            max_batch_size=2,
            max_queue=256,
            watchdog_interval_s=None,
        )
        router.add_model("heavy", _SleepyModel(0.002, seed=7))
        router.add_model("light", _SleepyModel(0.002, seed=8))
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            # Pre-load a deep backlog for "heavy", then a few for "light".
            heavy = [router.submit("heavy", {"features": x}) for _ in range(60)]
            light = [router.submit("light", {"features": x}) for _ in range(6)]
            for response in heavy + light:
                response.result(timeout=30)
        last_light = max(r.completed_at for r in light)
        after_light = sum(1 for r in heavy if r.completed_at > last_light)
        # Stride scheduling serves light's 6 requests long before heavy's 60
        # drain; a FIFO-across-the-fleet scheduler would leave after_light == 0.
        assert after_light >= 20

    def test_weights_shift_service_proportionally(self):
        """A weight-2 model gets ~2x the rows of a weight-1 model while both
        are backlogged."""
        router = FleetRouter(
            replicas=1,
            max_batch_size=2,
            max_queue=256,
            watchdog_interval_s=None,
        )
        router.add_model("fast-lane", _SleepyModel(0.002, seed=7), weight=2.0)
        router.add_model("slow-lane", _SleepyModel(0.002, seed=8), weight=1.0)
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            fast = [router.submit("fast-lane", {"features": x}) for _ in range(30)]
            slow = [router.submit("slow-lane", {"features": x}) for _ in range(30)]
            for response in fast + slow:
                response.result(timeout=30)
        # Among the first 30 completions overall, fast-lane should hold a
        # clear majority (exact 2:1 modulo batch quantisation).
        order = sorted(fast + slow, key=lambda r: r.completed_at)
        fast_share = sum(1 for r in order[:30] if r in fast)
        assert fast_share >= 17


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmission:
    def test_rejection_is_per_model(self):
        """One model's full queue rejects only that model's traffic."""
        router = FleetRouter(
            replicas=1,
            max_batch_size=1,
            max_queue=2,
            watchdog_interval_s=None,
        )
        router.add_model("busy", _SleepyModel(0.2))
        router.add_model("idle", make_model(seed=9), max_queue=64)
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            # Fill busy's queue past capacity: 1 in flight + 2 queued.
            pending = [router.submit("busy", {"features": x})]
            time.sleep(0.05)  # let the worker pick it up and block in sleep
            pending += [router.submit("busy", {"features": x}) for _ in range(2)]
            with pytest.raises(ServerOverloadedError, match="busy"):
                for _ in range(4):
                    pending.append(router.submit("busy", {"features": x}))
            # The other model still answers immediately.
            assert router.request("idle", {"features": x}).shape == (1, 4)
            for response in pending:
                response.result(timeout=10)
        report = router.metrics()
        assert report["models"]["busy"]["rejected"] >= 1
        assert report["models"]["idle"]["rejected"] == 0
        assert report["fleet"]["rejected"] == report["models"]["busy"]["rejected"]

    def test_oversized_request_rejected(self):
        router = FleetRouter(replicas=1, max_batch_size=4, watchdog_interval_s=None)
        router.add_model("m", make_model())
        with router:
            with pytest.raises(ConfigurationError, match="split it client-side"):
                router.submit("m", np.zeros((5, 16), dtype=np.float32))

    def test_unknown_model_rejected(self):
        router = FleetRouter(watchdog_interval_s=None)
        router.add_model("known", make_model())
        with router:
            with pytest.raises(ConfigurationError, match="no model 'unknown'"):
                router.submit("unknown", np.zeros((1, 16), dtype=np.float32))


# --------------------------------------------------------------------------- #
# Configuration and lifecycle
# --------------------------------------------------------------------------- #
class TestRouterLifecycle:
    def test_duplicate_model_name_rejected(self):
        router = FleetRouter(watchdog_interval_s=None)
        router.add_model("m", make_model())
        with pytest.raises(ConfigurationError, match="already registered"):
            router.add_model("m", make_model())

    def test_model_larger_than_budget_rejected(self):
        one = model_bytes(make_model())
        router = FleetRouter(memory_budget=one // 2, watchdog_interval_s=None)
        with pytest.raises(ConfigurationError, match="fit the budget whole"):
            router.add_model("m", make_model())

    def test_model_with_parameters_outside_its_blocks_rejected(self):
        """A fleet member moves as its executor's one shard, so that shard
        must be every parameter the model has."""
        from repro.nn.parameter import Parameter

        model = make_model()
        model.stray = Parameter(np.zeros(3, dtype=np.float32))
        router = FleetRouter(watchdog_interval_s=None)
        with pytest.raises(ConfigurationError, match="own exactly its parameters"):
            router.add_model("m", model)
        assert router.models == []

    def test_stopped_router_cannot_restart(self):
        router = FleetRouter(watchdog_interval_s=None)
        router.add_model("m", make_model())
        with router:
            pass
        with pytest.raises(ServingError, match="was stopped"):
            router.start()
        with pytest.raises(ServingError, match="was stopped"):
            router.add_model("late", make_model())

    def test_submit_requires_running_router(self):
        router = FleetRouter(watchdog_interval_s=None)
        router.add_model("m", make_model())
        with pytest.raises(ServingError, match="not running"):
            router.submit("m", np.zeros((1, 16), dtype=np.float32))

    def test_add_model_while_serving(self):
        """The fleet grows without a restart; new models serve immediately."""
        router = FleetRouter(replicas=1, watchdog_interval_s=None)
        router.add_model("first", make_model(seed=20))
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            router.request("first", {"features": x})
            router.add_model("second", make_model(seed=21))
            got = router.request("second", {"features": x})
            reference = Replica.resident(make_model(seed=21)).infer(
                {"features": x}, pad_to=router.max_batch_size
            )
            assert np.array_equal(got, reference)
        assert router.models == ["first", "second"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetRouter(replicas=0)
        with pytest.raises(ConfigurationError):
            FleetRouter(memory_budget=0)
        router = FleetRouter(watchdog_interval_s=None)
        with pytest.raises(ConfigurationError):
            router.add_model("m", make_model(), weight=0.0)
        with pytest.raises(ConfigurationError):
            router.add_model("m", make_model(), compute_batch_size=2, max_batch_size=4)

    def test_watchdog_counts_stalls(self):
        """A long forward with queued work behind it trips the watchdog."""
        router = FleetRouter(
            replicas=1, max_batch_size=1, watchdog_interval_s=0.05
        )
        router.add_model("slow", _SleepyModel(0.5))
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            pending = [router.submit("slow", {"features": x}) for _ in range(2)]
            for response in pending:
                response.result(timeout=10)
            report = router.metrics()
        assert report["scheduler"]["stalls"] >= 1


# --------------------------------------------------------------------------- #
# stop(drain=False): one lifecycle, one accounting, for both front-ends
# --------------------------------------------------------------------------- #
def _slow_server():
    server = ModelServer(
        [Replica.resident(_SleepyModel(0.2))],
        max_batch_size=1,
        max_wait_ms=0.0,
        max_queue=16,
    )
    return server, server.submit, server.metrics


def _slow_router():
    router = FleetRouter(
        replicas=1, max_batch_size=1, max_queue=16, watchdog_interval_s=None
    )
    router.add_model("slow", _SleepyModel(0.2))
    handle = router.handle("slow")
    return router, handle.submit, handle.metrics


class TestStopWithoutDrain:
    @pytest.mark.parametrize("build", [_slow_server, _slow_router])
    def test_queued_requests_fail_once_and_inflight_completes(self, build):
        target, submit, metrics = build()
        x = np.zeros((1, 16), dtype=np.float32)
        target.start()
        inflight = submit(x)
        time.sleep(0.05)  # the worker picks it up and blocks in the forward
        queued = [submit(x) for _ in range(5)]
        target.stop(drain=False)
        # The batch already running completes...
        assert inflight.result(timeout=5.0).shape == (1, 4)
        # ...every queued request resolves with the typed error...
        for response in queued:
            assert response.done()
            with pytest.raises(ServingError, match="stopped"):
                response.result(timeout=0.1)
        # ...and each is counted exactly once.
        report = metrics()
        assert report["failed"] == len(queued)
        assert report["completed"] == 1
        if isinstance(target, FleetRouter):
            assert target.metrics()["fleet"]["failed"] == len(queued)


# --------------------------------------------------------------------------- #
# Scheduler metrics
# --------------------------------------------------------------------------- #
class TestRouterMetrics:
    def test_metrics_sections_and_batch_accounting(self):
        router = FleetRouter(replicas=1, max_batch_size=4, watchdog_interval_s=None)
        router.add_model("m", make_model())
        x = np.zeros((2, 16), dtype=np.float32)
        with router:
            for _ in range(6):
                router.request("m", {"features": x})
            report = router.metrics()
        assert set(report) == {"fleet", "models", "residency", "scheduler"}
        fleet = report["fleet"]
        assert fleet["completed"] == 6
        assert fleet["batches"] >= 1
        assert fleet["mean_batch_rows"] >= 2
        assert "queue_depth_max" in fleet and "queue_depth_mean" in fleet
        assert report["models"]["m"]["completed"] == 6
        assert report["scheduler"]["batches_dispatched"] == fleet["batches"]
        assert report["scheduler"]["queue_depths"] == {"m": 0}
        for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
            assert fleet[key] >= 0.0

    def test_handle_is_server_shaped(self):
        router = FleetRouter(replicas=1, watchdog_interval_s=None)
        router.add_model("m", make_model(seed=20))
        handle = router.handle("m")
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            response = handle.submit({"features": x})
            got = response.result(timeout=10)
            also = handle.request({"features": x})
            assert np.array_equal(got, also)
            assert handle.metrics()["completed"] == 2
        with pytest.raises(ConfigurationError):
            router.handle("nope")


# --------------------------------------------------------------------------- #
# API wiring: serve_fleet and deploy(router=)
# --------------------------------------------------------------------------- #
class TestFleetAPI:
    def test_serve_fleet_from_registry(self, tmp_path):
        from repro.api import serve_fleet

        registry = ModelRegistry(tmp_path)
        for index in range(3):
            registry.publish(f"mlp-{index}", make_model(seed=30 + index))
        one = model_bytes(make_model())
        router = serve_fleet(
            registry,
            lambda name: make_model(seed=99),  # weights come from the registry
            memory_budget=int(one * 1.5),
            replicas=2,
            max_batch_size=GEOMETRY,
        )
        try:
            assert router.models == ["mlp-0", "mlp-1", "mlp-2"]
            x = np.zeros((1, 16), dtype=np.float32)
            for index in range(3):
                got = router.request(f"mlp-{index}", {"features": x})
                reference = Replica.resident(make_model(seed=30 + index)).infer(
                    {"features": x}, pad_to=GEOMETRY
                )
                assert np.array_equal(got, reference)
        finally:
            router.stop()

    def test_serve_fleet_validation(self, tmp_path):
        from repro.api import serve_fleet

        registry = ModelRegistry(tmp_path)
        with pytest.raises(ConfigurationError, match="at least one model"):
            serve_fleet(registry, lambda name: make_model())
        registry.publish("m", make_model())
        with pytest.raises(ConfigurationError, match="not in the fleet"):
            serve_fleet(registry, lambda name: make_model(), weights={"ghost": 1.0})

    def test_deploy_into_router(self, tmp_path):
        from repro.selection import SelectionResult, TrialResult

        registry = ModelRegistry(tmp_path)
        result = SelectionResult("unit", objective="loss", mode="min")
        for index, trial_id in enumerate(["trial-a", "trial-b"]):
            model = make_model(seed=40 + index)
            registry.publish(trial_id, model)
            result.trials.append(
                TrialResult(
                    trial_id,
                    hyperparameters={"seed": 40 + index},
                    metrics={"loss": 1.0 - index * 0.5},
                    epochs_trained=1,
                )
            )
        router = FleetRouter(replicas=1, max_batch_size=GEOMETRY, watchdog_interval_s=None)

        def build(config):
            return make_model(seed=config.hyperparameters["seed"])

        returned = result.deploy(build, registry=registry, router=router)
        assert returned is router
        # best() is trial-b (loss 0.5); it joined under its trial id.
        assert router.models == ["trial-b"]
        result.deploy(
            build,
            registry=registry,
            router=router,
            trial=result.trials[0],
            weight=2.0,
        )
        assert router.models == ["trial-a", "trial-b"]
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            for trial_id, seed in [("trial-a", 40), ("trial-b", 41)]:
                got = router.request(trial_id, {"features": x})
                reference = Replica.resident(make_model(seed=seed)).infer(
                    {"features": x}, pad_to=GEOMETRY
                )
                assert np.array_equal(got, reference)


# --------------------------------------------------------------------------- #
# Load generation against a fleet
# --------------------------------------------------------------------------- #
class TestFleetLoadGeneration:
    def test_mix_schedule_is_exact_and_deterministic(self):
        schedule = mix_schedule({"a": 3.0, "b": 1.0}, 40)
        assert schedule.count("a") == 30
        assert schedule.count("b") == 10
        assert schedule == mix_schedule({"a": 3.0, "b": 1.0}, 40)
        # No clumping: every window of 4 holds at least one "b"-free slot mix.
        assert all("a" in schedule[i : i + 4] for i in range(0, 40, 4))
        with pytest.raises(ConfigurationError):
            mix_schedule({}, 4)
        with pytest.raises(ConfigurationError):
            mix_schedule({"a": 0.0}, 4)

    def test_open_loop_mix_over_router(self):
        router = FleetRouter(replicas=2, max_batch_size=GEOMETRY, watchdog_interval_s=None)
        make_fleet(["m0", "m1"], router)
        x = np.zeros((1, 16), dtype=np.float32)
        with router:
            generator = LoadGenerator(
                router,
                lambda client, index: {"features": x},
                clients=4,
                requests_per_client=8,
                arrival_rate_rps=500.0,
                mix={"m0": 3.0, "m1": 1.0},
            )
            report = generator.run()
        assert report.mode == "open"
        assert report.offered_rps == 500.0
        assert report.completed == 32
        assert report.per_model == {"m0": 24, "m1": 8}
        flattened = report.as_dict()
        assert flattened["per_model"] == {"m0": 24.0, "m1": 8.0}

    def test_router_target_requires_mix(self):
        router = FleetRouter(watchdog_interval_s=None)
        router.add_model("m", make_model())
        with pytest.raises(ConfigurationError, match="needs a mix"):
            LoadGenerator(router, lambda c, i: {})
        server = ModelServer([Replica.resident(make_model())])
        with pytest.raises(ConfigurationError, match="FleetRouter target"):
            LoadGenerator(server, lambda c, i: {}, mix={"m": 1.0})
