"""The spilled-execution subsystem: arenas, host cache, spill manager,
prefetch, spill-aware scheduling — and the exactness bar: spilled training
is bit-identical (``array_equal``) to fully-resident training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Budget, Experiment, ShardParallelBackend
from repro.cluster import Cluster
from repro.cluster.device import DeviceSpec
from repro.data import DataLoader, make_classification
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    MemoryBudgetError,
    SchedulingError,
)
from repro.memory import (
    DeviceArena,
    HostShardCache,
    LRUEvictionPolicy,
    ResidencyState,
    ScheduleAwareEvictionPolicy,
    SpillManager,
    make_eviction_policy,
)
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import SGD, Adam
from repro.scheduler import (
    ShardParallelStrategy,
    SpilledShardParallelStrategy,
    TrainingJob,
    plan_waves,
    spill_aware_placement,
)
from repro.selection import SearchSpace
from repro.sharding import make_plan
from repro.training import ShardedModelExecutor, ShardParallelTrainer
from repro.training.checkpoint import load_checkpoint, save_checkpoint


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def small_mlp(seed: int = 3, width: int = 16) -> FeedForwardNetwork:
    config = FeedForwardConfig(input_dim=16, hidden_dims=(width,) * 3, num_classes=4)
    return FeedForwardNetwork(config, seed=seed)


def mlp_loader(batch_size: int = 16, features: int = 16, classes: int = 4) -> DataLoader:
    data = make_classification(
        num_samples=64, num_features=features, num_classes=classes,
        rng=np.random.default_rng(11),
    )
    return DataLoader(data, batch_size=batch_size, shuffle=True, seed=0)


def uniform_mlp(seed: int = 9, width: int = 32) -> FeedForwardNetwork:
    """Equal-sized square blocks, so every shard has the same footprint."""
    config = FeedForwardConfig(
        input_dim=width, hidden_dims=(width,) * 3, num_classes=width
    )
    return FeedForwardNetwork(config, seed=seed)


def shard_nbytes(executor: ShardedModelExecutor, shard: int, optimizer) -> int:
    params = executor.shard_parameters(shard)
    return sum(p.data.nbytes for p in params) + (
        sum(p.data.size for p in params) * optimizer.state_bytes_per_parameter
    )


def train_epochs(executor, loader, optimizer, epochs: int = 2):
    losses = []
    for epoch in range(epochs):
        loader.set_epoch(epoch)
        for batch in loader:
            losses.append(executor.train_step(batch, optimizer))
    return np.asarray(losses)


BOUNDARIES = [(0, 1), (1, 2), (2, 3), (3, 4)]


# --------------------------------------------------------------------------- #
# DeviceArena
# --------------------------------------------------------------------------- #
class TestDeviceArena:
    def test_ledger_semantics(self):
        arena = DeviceArena("dev0", 100)
        arena.allocate("a", 60)
        assert arena.used_bytes == 60 and arena.free_bytes == 40
        with pytest.raises(ConfigurationError):
            arena.allocate("a", 1)  # duplicate key
        with pytest.raises(MemoryBudgetError):
            arena.allocate("b", 41)  # over budget
        assert arena.release("a") == 60
        with pytest.raises(ConfigurationError):
            arena.release("a")
        assert arena.peak_bytes == 60

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            DeviceArena("dev0", 0)


# --------------------------------------------------------------------------- #
# HostShardCache
# --------------------------------------------------------------------------- #
class TestHostShardCache:
    def test_round_trip_copies(self):
        cache = HostShardCache()
        source = np.arange(6, dtype=np.float32)
        cache.put(("m", 0), [source])
        source += 100.0  # mutating the original must not corrupt the stash
        (restored,) = cache.take(("m", 0))
        assert np.array_equal(restored, np.arange(6, dtype=np.float32))
        assert not cache.holds(("m", 0))

    def test_take_missing_raises(self):
        with pytest.raises(ConfigurationError):
            HostShardCache().take(("m", 0))

    def test_drop_model(self):
        cache = HostShardCache()
        cache.put(("a", 0), [np.zeros(2)])
        cache.put(("a", 1), [np.zeros(2)])
        cache.put(("b", 0), [np.zeros(2)])
        cache.drop_model("a")
        assert cache.keys() == [("b", 0)]

    def test_memory_limit_requires_spill_dir(self):
        with pytest.raises(ConfigurationError):
            HostShardCache(memory_limit_bytes=10)

    def test_disk_tier_round_trip(self, tmp_path):
        payloads = {
            ("m", i): [np.full(8, i, dtype=np.float32), np.full(4, -i, dtype=np.float32)]
            for i in range(4)
        }
        cache = HostShardCache(memory_limit_bytes=64, spill_dir=tmp_path)
        for key, arrays in payloads.items():
            cache.put(key, arrays)
        # The limit holds ~one entry in DRAM; the rest overflowed to disk.
        assert cache.bytes_in_memory <= 64 or len(cache.keys()) == 1
        assert any(tmp_path.glob("*.npz")), "expected npz archives on disk"
        for key, arrays in payloads.items():
            restored = cache.take(key)
            for dst, src in zip(restored, arrays):
                assert np.array_equal(dst, src)
        assert not any(tmp_path.glob("*.npz")), "taken entries must leave disk"

    def test_disk_stems_do_not_collide_after_sanitisation(self, tmp_path):
        cache = HostShardCache(memory_limit_bytes=8, spill_dir=tmp_path)
        first = np.full(4, 1.0, dtype=np.float32)
        second = np.full(4, 2.0, dtype=np.float32)
        cache.put(("m/1", 0), [first])  # both ids sanitise to "m_1"
        cache.put(("m_1", 0), [second])
        assert np.array_equal(cache.take(("m/1", 0))[0], first)
        assert np.array_equal(cache.take(("m_1", 0))[0], second)

    def test_oversized_single_payload_respects_dram_bound(self, tmp_path):
        cache = HostShardCache(memory_limit_bytes=8, spill_dir=tmp_path)
        big = np.arange(16, dtype=np.float32)  # 64 bytes > the 8-byte limit
        cache.put(("m", 0), [big])
        assert cache.bytes_in_memory == 0, "even the newest entry must overflow"
        assert np.array_equal(cache.take(("m", 0))[0], big)


# --------------------------------------------------------------------------- #
# Eviction policies
# --------------------------------------------------------------------------- #
class TestEvictionPolicies:
    def _records(self, manager_keys):
        from repro.memory import ShardResidency

        return [
            ShardResidency(key=key, device="dev0", nbytes=1, arrays_fn=list, last_use=use)
            for key, use in manager_keys
        ]

    def test_lru_evicts_oldest(self):
        records = self._records([(("m", 0), 5), (("m", 1), 2), (("m", 2), 9)])
        assert LRUEvictionPolicy().choose(records).key == ("m", 1)

    def test_schedule_aware_evicts_furthest_next_hop(self):
        policy = ScheduleAwareEvictionPolicy()
        policy.announce("m", [("m", 0), ("m", 1), ("m", 2)])
        records = self._records([(("m", 0), 1), (("m", 1), 2), (("m", 2), 3)])
        assert policy.choose(records).key == ("m", 2)
        # Accessing shard 2 consumes its hop; with nothing upcoming it
        # becomes the ideal victim.
        policy.announce("m", [("m", 0), ("m", 1)])
        assert policy.choose(records).key == ("m", 2)

    def test_schedule_aware_prefers_between_batch_models(self):
        policy = ScheduleAwareEvictionPolicy()
        policy.announce("busy", [("busy", 0)])
        records = self._records([(("busy", 0), 1), (("idle", 0), 9)])
        assert policy.choose(records).key == ("idle", 0)

    def test_make_policy_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_eviction_policy("belady-prime")
        assert make_eviction_policy("lru").name == "lru"
        assert make_eviction_policy("schedule-aware").name == "schedule-aware"


# --------------------------------------------------------------------------- #
# SpillManager state machine
# --------------------------------------------------------------------------- #
class TestSpillManager:
    def _manager(self, capacity: int, **kwargs):
        return SpillManager({"dev0": capacity}, **kwargs)

    def test_acquire_charges_and_evicts_under_pressure(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        manager = self._manager(capacity=16, scrub_evicted=True)
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        manager.register(("m", 1), "dev0", 16, lambda: [b])
        with manager.lease(("m", 0)):
            assert manager.residency(("m", 0)) is ResidencyState.RESIDENT
        manager.acquire(("m", 1))  # pressure: evicts shard 0
        manager.release(("m", 1))
        assert manager.residency(("m", 0)) is ResidencyState.EVICTED
        assert np.isnan(a).all(), "scrub must poison evicted arrays"
        with manager.lease(("m", 0)):
            assert np.array_equal(a, np.zeros(4, dtype=np.float32)), (
                "restore must put the exact bytes back"
            )
        assert manager.stats.evictions >= 1
        assert manager.stats.bytes_evicted >= 16

    def test_pinned_shards_are_never_evicted(self):
        a, b = np.zeros(2), np.zeros(2)
        manager = self._manager(capacity=8, acquire_timeout_seconds=0.2)
        manager.register(("m", 0), "dev0", 8, lambda: [a])
        manager.register(("m", 1), "dev0", 8, lambda: [b])
        manager.acquire(("m", 0))
        with pytest.raises(MemoryBudgetError):
            manager.acquire(("m", 1))  # only candidate is pinned -> timeout
        manager.release(("m", 0))
        with manager.lease(("m", 1)):
            pass

    def test_shard_larger_than_arena_rejected(self):
        manager = self._manager(capacity=8)
        manager.register(("m", 0), "dev0", 9, lambda: [])
        with pytest.raises(MemoryBudgetError):
            manager.acquire(("m", 0))

    def test_release_without_acquire_rejected(self):
        manager = self._manager(capacity=8)
        manager.register(("m", 0), "dev0", 4, lambda: [])
        with pytest.raises(ConfigurationError):
            manager.release(("m", 0))

    def test_unregistered_key_rejected(self):
        with pytest.raises(ConfigurationError):
            self._manager(capacity=8).acquire(("ghost", 0))

    def test_prefetch_overlaps_and_acquire_joins(self):
        a = np.arange(4, dtype=np.float32)
        manager = self._manager(capacity=64, prefetch=True, scrub_evicted=True)
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        with manager.lease(("m", 0)):
            pass
        manager.evict(("m", 0))
        assert np.isnan(a).all()
        assert manager.prefetch(("m", 0)) is True
        with manager.lease(("m", 0)):  # joins the in-flight prefetch
            assert np.array_equal(a, np.arange(4, dtype=np.float32))
        assert manager.stats.prefetches_completed == 1
        assert manager.prefetch(("m", 0)) is False  # already resident
        manager.close()

    def test_failed_prefetch_preserves_payload_and_surfaces(self):
        a = np.arange(4, dtype=np.float32)
        manager = self._manager(
            capacity=64, prefetch=True, scrub_evicted=True,
            acquire_timeout_seconds=5.0,
        )
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        with manager.lease(("m", 0)):
            pass
        manager.evict(("m", 0))
        # Break the live-array view so the async restore fails mid-flight.
        manager.register(("m", 0), "dev0", 16, lambda: [a, a])
        assert manager.prefetch(("m", 0)) is True
        with pytest.raises(ConfigurationError):
            manager.acquire(("m", 0))  # surfaces the prefetch failure
        # The canonical payload survived the failure: repair and restore.
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        with manager.lease(("m", 0)):
            assert np.array_equal(a, np.arange(4, dtype=np.float32))
        manager.close()

    def test_close_shuts_down_owned_prefetcher(self):
        manager = self._manager(capacity=64, prefetch=True)
        manager.close()
        manager.close()  # idempotent

    def test_prefetch_after_close_does_not_strand_the_shard(self):
        a = np.arange(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        manager = self._manager(
            capacity=16, prefetch=True, scrub_evicted=True,
            acquire_timeout_seconds=2.0,
        )
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        manager.register(("m", 1), "dev0", 16, lambda: [b])
        with manager.lease(("m", 0)):
            pass
        with manager.lease(("m", 1)):  # evicts shard 0 to the host cache
            pass
        manager.close()
        evictions = manager.stats.evictions
        # A closed manager refuses before staging anything: shard 1 is not
        # evicted to make room and shard 0's payload stays in the cache.
        assert manager.prefetch(("m", 0)) is False
        assert manager.residency(("m", 1)) is ResidencyState.RESIDENT
        assert manager.stats.evictions == evictions
        assert manager.residency(("m", 0)) is ResidencyState.EVICTED
        assert manager.stats.prefetches_issued == 0
        with manager.lease(("m", 0)):  # demand-fetches the canonical bytes
            assert np.array_equal(a, np.arange(4, dtype=np.float32))

    def test_forget_restores_evicted_values(self):
        a = np.arange(4, dtype=np.float32)
        manager = self._manager(capacity=16, scrub_evicted=True)
        manager.register(("m", 0), "dev0", 16, lambda: [a])
        with manager.lease(("m", 0)):
            pass
        manager.evict(("m", 0))
        assert np.isnan(a).all()
        manager.forget_model("m")
        assert np.array_equal(a, np.arange(4, dtype=np.float32))
        assert manager.registered() == []

    def test_reregistration_moves_device(self):
        a = np.zeros(2)
        manager = SpillManager({"dev0": 64, "dev1": 64})
        arenas = list(manager.arenas.values())
        manager.register(("m", 0), "dev0", 8, lambda: [a])
        with manager.lease(("m", 0)):
            pass
        assert arenas[0].used_bytes == 8
        manager.register(("m", 0), "dev1", 8, lambda: [a])
        assert arenas[0].used_bytes == 0
        with manager.lease(("m", 0)):
            assert arenas[1].used_bytes == 8


# --------------------------------------------------------------------------- #
# Spilled execution is bit-identical to resident execution
# --------------------------------------------------------------------------- #
class TestSpilledExecutorExactness:
    @pytest.mark.parametrize("policy", ["lru", "schedule-aware"])
    def test_losses_and_params_match_resident_run(self, policy):
        resident_model = small_mlp()
        resident_opt = Adam(resident_model.parameters(), lr=1e-2)
        resident_exec = ShardedModelExecutor(resident_model, BOUNDARIES)
        resident_losses = train_epochs(resident_exec, mlp_loader(), resident_opt)

        spilled_model = small_mlp()
        spilled_opt = Adam(spilled_model.parameters(), lr=1e-2)
        spilled_exec = ShardedModelExecutor(spilled_model, BOUNDARIES)
        budget = int(shard_nbytes(spilled_exec, 0, spilled_opt) * 1.5)
        manager = SpillManager(
            {"dev0": budget}, policy=policy, prefetch=True, scrub_evicted=True
        )
        spilled_exec.bind_memory(manager, spilled_opt)
        spilled_losses = train_epochs(spilled_exec, mlp_loader(), spilled_opt)

        assert manager.stats.evictions > 0, "budget was not tight enough to spill"
        assert np.array_equal(resident_losses, spilled_losses)
        manager.forget_model(spilled_model.model_name)
        for (_, p_resident), (_, p_spilled) in zip(
            resident_model.named_parameters(), spilled_model.named_parameters()
        ):
            assert np.array_equal(p_resident.data, p_spilled.data)

    def test_sgd_spilled_matches_resident(self):
        resident_model = small_mlp()
        resident_opt = SGD(resident_model.parameters(), lr=1e-2, momentum=0.9)
        resident_losses = train_epochs(
            ShardedModelExecutor(resident_model, BOUNDARIES), mlp_loader(), resident_opt
        )
        spilled_model = small_mlp()
        spilled_opt = SGD(spilled_model.parameters(), lr=1e-2, momentum=0.9)
        spilled_exec = ShardedModelExecutor(spilled_model, BOUNDARIES)
        manager = SpillManager(
            {"dev0": int(shard_nbytes(spilled_exec, 0, spilled_opt) * 1.5)},
            scrub_evicted=True,
        )
        spilled_exec.bind_memory(manager, spilled_opt)
        assert np.array_equal(
            resident_losses, train_epochs(spilled_exec, mlp_loader(), spilled_opt)
        )

    def test_train_step_rejects_foreign_optimizer(self):
        model = small_mlp()
        optimizer = Adam(model.parameters(), lr=1e-2)
        executor = ShardedModelExecutor(model, BOUNDARIES)
        manager = SpillManager({"dev0": 1 << 20})
        executor.bind_memory(manager, optimizer)
        other = Adam(model.parameters(), lr=1e-2)
        with pytest.raises(ConfigurationError):
            executor.train_step(next(iter(mlp_loader())), other)


# --------------------------------------------------------------------------- #
# Acceptance: over-memory models train to completion, bit-identically
# --------------------------------------------------------------------------- #
class TestOverMemoryTraining:
    def test_model_larger_than_every_device_budget(self):
        """Resident bytes exceed each device's budget; training still bit-matches."""
        def build():
            model = uniform_mlp(seed=9, width=32)
            return model, Adam(model.parameters(), lr=5e-3), mlp_loader(
                features=32, classes=32
            )

        # Fully-resident reference on an unconstrained trainer.
        model_ref, opt_ref, loader_ref = build()
        trainer_ref = ShardParallelTrainer(num_devices=2)
        trainer_ref.add_model(model_ref, opt_ref, loader_ref, BOUNDARIES, model_id="big")
        reports_ref = trainer_ref.fit(num_epochs=2)

        # Spilled run: per-device budget below the model's per-device share.
        model, optimizer, loader = build()
        probe = ShardedModelExecutor(model, BOUNDARIES)
        per_shard = max(shard_nbytes(probe, s, optimizer) for s in range(4))
        budget = int(per_shard * 1.5)  # holds 1 shard (+ prefetch slack), not 2
        total_resident = sum(shard_nbytes(probe, s, optimizer) for s in range(4))
        assert total_resident > budget, "model must exceed every device budget"
        for device in range(2):  # each device's own share must overflow too
            share = sum(shard_nbytes(probe, s, optimizer) for s in range(device, 4, 2))
            assert share > budget
        manager = SpillManager(
            {"dev0": budget, "dev1": budget},
            policy="schedule-aware",
            prefetch=True,
            scrub_evicted=True,
        )
        trainer = ShardParallelTrainer(num_devices=2, memory_manager=manager)
        trainer.add_model(model, optimizer, loader, BOUNDARIES, model_id="big")
        reports = trainer.fit(num_epochs=2)

        assert manager.stats.evictions > 0
        ref_losses = [epoch["loss"] for epoch in reports_ref["big"].epochs]
        spl_losses = [epoch["loss"] for epoch in reports["big"].epochs]
        assert np.array_equal(np.asarray(ref_losses), np.asarray(spl_losses))
        for arena in manager.arenas.values():
            assert arena.peak_bytes <= arena.capacity_bytes

    def test_more_models_than_aggregate_budget(self):
        """Three models share arenas that cannot hold even one of them."""
        def build(seed):
            model = small_mlp(seed=seed)
            return model, Adam(model.parameters(), lr=1e-2), mlp_loader()

        def run(memory_manager):
            trainer = ShardParallelTrainer(num_devices=2, memory_manager=memory_manager)
            for index in range(3):
                model, optimizer, loader = build(seed=20 + index)
                trainer.add_model(model, optimizer, loader, BOUNDARIES, model_id=f"m{index}")
            reports = trainer.fit(num_epochs=1)
            return {
                model_id: [epoch["loss"] for epoch in report.epochs]
                for model_id, report in reports.items()
            }

        reference = run(None)
        probe_model, probe_opt, _ = build(seed=20)
        probe = ShardedModelExecutor(probe_model, BOUNDARIES)
        budget = int(max(shard_nbytes(probe, s, probe_opt) for s in range(4)) * 1.6)
        manager = SpillManager(
            {"dev0": budget, "dev1": budget},
            policy="schedule-aware",
            scrub_evicted=True,
        )
        spilled = run(manager)
        assert manager.stats.evictions > 0
        assert reference.keys() == spilled.keys()
        for model_id in reference:
            assert np.array_equal(
                np.asarray(reference[model_id]), np.asarray(spilled[model_id])
            )


# --------------------------------------------------------------------------- #
# Spilling under the concurrent runtime (workers=1 vs workers=4)
# --------------------------------------------------------------------------- #
class TestSpillUnderConcurrentBackend:
    def _experiment(self):
        data = make_classification(
            num_samples=96, num_features=16, num_classes=4,
            rng=np.random.default_rng(5),
        )

        def build(trial):
            width = int(trial.get("width"))
            model = small_mlp(seed=1, width=width)
            return (
                model,
                Adam(model.parameters(), lr=float(trial.get("lr"))),
                DataLoader(data, batch_size=16, shuffle=True, seed=0),
            )

        space = SearchSpace({"width": [16, 24], "lr": [1e-2, 1e-3]})
        experiment = Experiment(
            space=space, searcher="grid", objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        return experiment, build

    def test_identical_rankings_and_losses_across_worker_counts(self):
        experiment, build = self._experiment()
        tight = 48 * 1024  # a fraction of what four trials' shards need

        unconstrained = experiment.run(
            backend=ShardParallelBackend(builder=build, num_devices=2)
        )
        serial_backend = ShardParallelBackend(
            builder=build, num_devices=2, memory_budget=tight
        )
        serial = experiment.run(backend=serial_backend, workers=1)
        pooled_backend = ShardParallelBackend(
            builder=build, num_devices=2, memory_budget=tight
        )
        pooled = experiment.run(backend=pooled_backend, workers=4)

        def ranking(result):
            return [trial.trial_id for trial in result.ranked()]

        def losses(result):
            return {t.trial_id: t.metric("loss") for t in result.ranked()}

        assert ranking(serial) == ranking(pooled) == ranking(unconstrained)
        assert losses(serial) == losses(pooled) == losses(unconstrained)
        for backend in (serial_backend, pooled_backend):
            total = backend.memory.stats.demand_fetches + backend.memory.stats.prefetches_issued
            assert total > 0, "the tight budget must actually exercise the manager"
            assert backend.memory.registered() == [], "teardown must forget trials"
            for arena in backend.memory.arenas.values():
                assert arena.used_bytes == 0
                assert arena.peak_bytes <= arena.capacity_bytes


# --------------------------------------------------------------------------- #
# Spill-aware scheduling on the simulator
# --------------------------------------------------------------------------- #
def over_memory_cluster_and_job(num_devices: int = 2):
    """A job whose resident bytes exceed every device (activations small).

    The model's blocks are uniform (square hidden layers), so each of the 4
    shards has the same resident footprint and a device sized for ~1.7
    shards cannot hold its round-robin share of 2 — spilling is forced on
    every device.
    """
    profile = FeedForwardConfig(
        input_dim=128, hidden_dims=(128, 128, 128), num_classes=128
    ).profile()
    plan = make_plan("big", profile, batch_size=2, num_shards=4)
    worst_resident = max(shard.resident_bytes for shard in plan.shards)
    activation_total = sum(shard.activation_bytes for shard in plan.shards)
    spec = DeviceSpec(
        "tiny-gpu",
        memory_bytes=int(worst_resident * 1.7 + activation_total),
        flops_per_second=14e12,
    )
    cluster = Cluster.single_server(num_devices, gpu=spec)
    job = TrainingJob("big", plan, num_epochs=1, batches_per_epoch=2, samples_per_batch=2)
    total_resident = sum(shard.resident_bytes for shard in plan.shards)
    assert total_resident > spec.memory_bytes
    return cluster, job


class TestSpillAwarePlacement:
    def test_admits_over_memory_job(self):
        cluster, job = over_memory_cluster_and_job()
        plan = spill_aware_placement([job], cluster)
        assert plan.num_spilled > 0
        assert len(plan.placement) == job.num_shards

    def test_fitting_workload_spills_nothing(self, four_gpu_cluster):
        profile = FeedForwardConfig.paper_1_2m().profile()
        job = TrainingJob(
            "fits", make_plan("fits", profile, batch_size=16, num_shards=4)
        )
        plan = spill_aware_placement([job], four_gpu_cluster)
        assert plan.num_spilled == 0

    def test_rejects_truly_impossible_shard(self):
        profile = FeedForwardConfig.paper_1_2m().profile()
        plan = make_plan("huge", profile, batch_size=2, num_shards=4)
        worst = max(shard.resident_bytes for shard in plan.shards)
        cluster = Cluster.single_server(
            1, gpu=DeviceSpec("nano", memory_bytes=int(worst // 2), flops_per_second=1e12)
        )
        job = TrainingJob("huge", plan)
        with pytest.raises(SchedulingError):
            spill_aware_placement([job], cluster)

    def test_plan_waves_error_names_shard_and_suggests_spilling(self):
        cluster, job = over_memory_cluster_and_job()
        with pytest.raises(SchedulingError) as excinfo:
            plan_waves([job], cluster)
        message = str(excinfo.value)
        assert "'big'" in message
        assert "shard" in message
        assert "spill_aware_placement" in message
        assert "spilled-shard-parallel" in message


class TestSpilledShardParallelStrategy:
    def test_over_memory_job_runs_with_overlapped_transfers(self):
        cluster, job = over_memory_cluster_and_job()
        result = SpilledShardParallelStrategy().schedule([job], cluster)
        assert result.makespan > 0
        assert len(result.spilled_shards) > 0
        assert result.summary()["spilled_shards"] == len(result.spilled_shards)

        spilled_batches = len(result.spilled_shards) * job.total_batches
        fetches = result.trace.records_for(kind="spill-fetch")
        writebacks = result.trace.records_for(kind="spill-writeback")
        assert len(fetches) == 2 * spilled_batches  # one per forward, one per backward
        assert len(writebacks) == spilled_batches  # one per update

        # Transfers run on the host lane and appear in utilization accounting.
        assert all(record.device == "host" for record in fetches + writebacks)
        assert result.trace.busy_seconds("host") > 0
        assert "host" in result.trace.device_names
        assert result.trace.transfer_seconds("host") > 0
        assert result.trace.summary()["transfer_seconds"] >= (
            result.trace.transfer_seconds("host")
        )
        per_model = result.per_model_metrics()["big"]
        compute_only = sum(
            record.duration
            for record in result.trace.records
            if record.device != "host" and record.tags.get("model") == "big"
        )
        assert per_model["busy_seconds"] > compute_only  # includes transfer time

        # Overlap: some transfer interval intersects device compute.
        compute = [r for r in result.trace.records if r.device != "host"]
        assert any(
            fetch.start < task.end and task.start < fetch.end
            for fetch in fetches
            for task in compute
        ), "spill transfers must overlap compute, not serialise behind it"

        # Device peaks stay within capacity (the simulator enforces the
        # ledger, so completing at all proves admission was sound).
        for device in cluster.devices:
            assert result.trace.peak_memory_bytes[device.name] <= device.spec.memory_bytes

    def test_fitting_workload_matches_shard_parallel_memory_behaviour(self, four_gpu_cluster):
        profile = FeedForwardConfig.paper_1_2m().profile()
        jobs = [
            TrainingJob(f"m{i}", make_plan(f"m{i}", profile, batch_size=16, num_shards=4))
            for i in range(2)
        ]
        result = SpilledShardParallelStrategy().schedule(jobs, four_gpu_cluster)
        assert result.spilled_shards == []
        assert not result.trace.records_for(kind="spill-fetch")
        baseline = ShardParallelStrategy().schedule(jobs, four_gpu_cluster)
        assert result.makespan == pytest.approx(baseline.makespan, rel=0.25)

    def test_available_via_hydra_session(self):
        from repro.hydra import HydraSession

        assert "spilled-shard-parallel" in HydraSession().available_strategies()


# --------------------------------------------------------------------------- #
# Checkpointing the full training state (params + optimizer)
# --------------------------------------------------------------------------- #
class TestCheckpointOptimizerState:
    @staticmethod
    def _batches(count):
        loader = mlp_loader(batch_size=16)
        loader.set_epoch(0)  # iteration advances the epoch; pin it per pass
        iterator = iter(loader)
        return [next(iterator) for _ in range(count)]

    @staticmethod
    def _train_on(model, optimizer, batches):
        for batch in batches:
            loss = model.loss_on_batch(batch)
            model.zero_grad()
            loss.backward()
            optimizer.step()

    def test_resume_is_bit_identical(self, tmp_path):
        batches = self._batches(4)

        reference = small_mlp(seed=4)
        reference_opt = Adam(reference.parameters(), lr=1e-2)
        self._train_on(reference, reference_opt, batches)

        # Same run, but checkpointed after 2 steps and resumed elsewhere.
        first = small_mlp(seed=4)
        first_opt = Adam(first.parameters(), lr=1e-2)
        self._train_on(first, first_opt, batches[:2])
        path = save_checkpoint(first, tmp_path / "mid.npz", optimizer=first_opt)

        resumed = small_mlp(seed=99)  # different init — must be overwritten
        resumed_opt = Adam(resumed.parameters(), lr=1e-2)
        load_checkpoint(resumed, path, optimizer=resumed_opt)
        assert resumed_opt.step_count == 2
        self._train_on(resumed, resumed_opt, batches[2:])

        for (_, p_ref), (_, p_res) in zip(
            reference.named_parameters(), resumed.named_parameters()
        ):
            assert np.array_equal(p_ref.data, p_res.data)

    def test_load_without_saved_optimizer_state_raises(self, tmp_path):
        model = small_mlp()
        path = save_checkpoint(model, tmp_path / "params-only.npz")
        optimizer = Adam(model.parameters(), lr=1e-2)
        with pytest.raises(CheckpointError):
            load_checkpoint(model, path, optimizer=optimizer)

    def test_params_only_round_trip_still_works(self, tmp_path):
        model = small_mlp()
        path = save_checkpoint(model, tmp_path / "plain.npz", metadata={"epoch": 3})
        other = small_mlp(seed=42)
        metadata = load_checkpoint(other, path)
        assert int(metadata["epoch"]) == 3
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_failed_optimizer_load_leaves_model_untouched(self, tmp_path):
        from repro.training.checkpoint import load_array_bundle, save_array_bundle

        source = small_mlp(seed=4)
        optimizer = Adam(source.parameters(), lr=1e-2)
        path = save_checkpoint(source, tmp_path / "ok.npz", optimizer=optimizer)
        bundle = load_array_bundle(path)
        name = next(name for name, _ in source.named_parameters())
        bundle[f"opt::{name}::m"] = np.zeros(3, dtype=np.float32)  # wrong shape
        path = save_array_bundle(tmp_path / "corrupt.npz", bundle)

        target = small_mlp(seed=99)
        before = {n: p.data.copy() for n, p in target.named_parameters()}
        target_opt = Adam(target.parameters(), lr=1e-2)
        with pytest.raises(CheckpointError):
            load_checkpoint(target, path, optimizer=target_opt)
        # No torn restore: neither the params nor the optimizer changed.
        for n, p in target.named_parameters():
            assert np.array_equal(p.data, before[n])
        assert target_opt.step_count == 0

    def test_optimizer_with_foreign_parameter_rejected(self, tmp_path):
        model = small_mlp()
        stray = small_mlp(seed=8)
        optimizer = Adam(stray.parameters(), lr=1e-2)
        with pytest.raises(CheckpointError):
            save_checkpoint(model, tmp_path / "bad.npz", optimizer=optimizer)
