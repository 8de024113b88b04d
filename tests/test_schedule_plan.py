"""A schedule is a value: strategies plan, one executor runs, and the real
engine reads the same within-batch order and staggered placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Budget, Experiment, SimulationBackend
from repro.cluster import Cluster
from repro.data import DataLoader, make_classification
from repro.hydra import HydraSession
from repro.memory import SpillManager
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.scheduler import (
    HybridShardDataParallelStrategy,
    SchedulePlan,
    Strategy,
    TrainingJob,
    build_task_graph,
    round_robin_placement,
)
from repro.scheduler.task import TaskKind, task_id_for
from repro.selection import SearchSpace
from repro.sharding import batch_order, make_plan, staggered_device
from repro.training import ShardedModelExecutor, ShardParallelTrainer


def mlp_jobs(count=2, num_shards=2, batches=4, epochs=1):
    profile = FeedForwardConfig.paper_1_2m().profile()
    return [
        TrainingJob(f"m{i}", make_plan(f"m{i}", profile, batch_size=16, num_shards=num_shards),
                    num_epochs=epochs, batches_per_epoch=batches, samples_per_batch=16)
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# Plan -> executor
# --------------------------------------------------------------------------- #
class TestPlanIsTheOnlyThingAStrategyWrites:
    @pytest.mark.parametrize("name", HydraSession().available_strategies())
    def test_every_strategy_plans_and_none_overrides_the_executor(self, name):
        strategy = HydraSession().make_strategy(name)
        assert strategy.policy is type(strategy)().policy
        assert type(strategy).schedule is Strategy.schedule
        cluster = Cluster.single_server(4, "v100-16gb")
        plan = strategy.plan(mlp_jobs(), cluster)
        assert isinstance(plan, SchedulePlan)
        assert all(device.used_bytes == 0 for device in cluster.devices), (
            "planning decides; only the executor may charge device ledgers"
        )
        planned = [task.task_id for wave in plan.waves for task in wave.tasks]
        result = strategy.schedule(mlp_jobs(), cluster)
        compute = [r.task_id for r in result.trace.records if r.device != "host"]
        assert sorted(planned) == sorted(compute)
        assert result.waves == len(plan.waves) == len(result.placements)

    def test_the_three_sequential_baselines_share_one_plan(self):
        session = HydraSession()
        plans = {
            type(session.make_strategy(name)).plan
            for name in ("single-device", "task-parallel", "model-parallel")
        }
        assert len(plans) == 1


class TestHybridAccountsWorkToItsJob:
    """Hybrid runs each job as chunks under their own ids; the job still owns them."""

    def test_per_model_metrics_cover_the_whole_trace(self):
        jobs = mlp_jobs(count=2, num_shards=2, batches=4)
        result = HybridShardDataParallelStrategy().schedule(
            jobs, Cluster.single_server(4, "v100-16gb")
        )
        per_model = result.per_model_metrics()
        assert all(per_model[job.model_id]["finish_seconds"] > 0 for job in jobs)
        assert max(m["finish_seconds"] for m in per_model.values()) == result.makespan
        assert sum(m["busy_seconds"] for m in per_model.values()) == pytest.approx(
            result.trace.busy_seconds(), rel=1e-12
        )
        assert {r.tags["job"] for r in result.trace.records} == {"m0", "m1"}

    def test_simulation_backend_reports_nonzero_trial_costs(self):
        backend = SimulationBackend(strategy="hybrid", num_shards=2, batches_per_epoch=4)
        result = Experiment(
            space=SearchSpace({"model": ["mlp-tiny", "mlp-1.2m"]}), searcher="grid",
            backend=backend, objective="makespan_seconds", mode="min",
            budget=Budget(epochs_per_trial=1),
        ).run()
        for trial in result.trials:
            assert trial.metrics["makespan_seconds"] > 0
            assert trial.metrics["busy_seconds"] > 0


# --------------------------------------------------------------------------- #
# The engine executes the order and placement the scheduler plans with
# --------------------------------------------------------------------------- #
BOUNDARIES3 = [(0, 1), (1, 3), (3, 4)]
BOUNDARIES4 = [(0, 1), (1, 2), (2, 3), (3, 4)]


def small_mlp(seed, name=None):
    config = FeedForwardConfig(
        input_dim=16, hidden_dims=(16,) * 3, num_classes=4, name=name or f"mlp{seed}"
    )
    return FeedForwardNetwork(config, seed=seed)


def mlp_loader():
    data = make_classification(
        num_samples=64, num_features=16, num_classes=4, rng=np.random.default_rng(11)
    )
    return DataLoader(data, batch_size=16, shuffle=True, seed=0)


class TestEngineReadsTheSharedSchedule:
    def test_batch_order_is_the_task_graph_order(self):
        (job,) = mlp_jobs(count=1, num_shards=3, batches=1)
        graph = [(task.kind.value, task.shard_index) for task in build_task_graph(job)]
        assert graph == [step for step in batch_order(3) if step[0] != "loss"]
        assert ShardedModelExecutor(small_mlp(0), BOUNDARIES3).order == batch_order(
            3, updates=False
        )

    def test_train_epoch_runs_a_topological_order_on_the_staggered_placement(
        self, monkeypatch
    ):
        executed = []  # (model, kind, shard) in the order the trainer ran them

        def record(kind, method):
            original = getattr(ShardedModelExecutor, method)

            def wrapper(self, shard_index, *args):
                executed.append((self.model.model_name, kind, shard_index))
                return original(self, shard_index, *args)

            monkeypatch.setattr(ShardedModelExecutor, method, wrapper)

        record(TaskKind.FORWARD, "run_forward")
        record(TaskKind.BACKWARD, "run_backward")

        num_models, num_devices = 3, 2
        trainer = ShardParallelTrainer(num_devices=num_devices)
        for index in range(num_models):
            model = small_mlp(index, name=f"m{index}")
            trainer.add_model(
                model, Adam(model.parameters(), lr=1e-2), mlp_loader(), BOUNDARIES3,
                model_id=f"m{index}",
            )
        trainer.train_epoch(0)

        jobs = mlp_jobs(count=num_models, num_shards=3, batches=4)
        graph = {
            task.task_id: task
            for job in jobs
            for task in build_task_graph(job, include_updates=False)
        }
        done = set()
        seen = {job.model_id: 0 for job in jobs}  # tasks executed so far, per model
        for model_id, kind, shard in executed:
            batch, _ = divmod(seen[model_id], 2 * 3)  # 3 forwards + 3 backwards a batch
            seen[model_id] += 1
            task = graph[task_id_for(model_id, 0, batch, shard, kind)]
            assert set(task.deps) <= done, f"{task.task_id} ran before {task.deps}"
            done.add(task.task_id)
        assert done == set(graph), "every planned task ran exactly once"
        # Round-robin over models: the three models' first forwards are adjacent.
        assert [step[0] for step in executed[:3]] == ["m0", "m1", "m2"]

        cluster = Cluster.single_server(num_devices, "v100-16gb")
        placement = round_robin_placement(jobs, cluster, stagger=True, charge_memory=False)
        names = cluster.device_names()
        for j, job in enumerate(jobs):
            for i in range(job.num_shards):
                assert names[trainer.device_of(j, i)] == placement.device_for(job.model_id, i)
                assert trainer.device_of(j, i) == staggered_device(i, j, num_devices)

    def test_spill_counters_match_the_interleave_pinned_before_the_refactor(self):
        """``tests/test_memory.py::TestOverMemoryTraining``'s 3-model cohort
        without a prefetcher is deterministic; these are the counters the
        phase/cursor state machine produced, so an equal dict means the
        generator-based sweep issues the same acquires in the same order."""
        def build(seed):
            model = small_mlp(seed)
            return model, Adam(model.parameters(), lr=1e-2), mlp_loader()

        probe_model, probe_optimizer, _ = build(20)
        probe = ShardedModelExecutor(probe_model, BOUNDARIES4)
        per_shard = max(
            sum(p.data.nbytes + p.data.size * probe_optimizer.state_bytes_per_parameter
                for p in probe.shard_parameters(shard))
            for shard in range(4)
        )
        budget = int(per_shard * 1.6)
        manager = SpillManager(
            {"dev0": budget, "dev1": budget},
            prefetch=False, scrub_evicted=True,
        )
        trainer = ShardParallelTrainer(num_devices=2, memory_manager=manager)
        for index in range(3):
            model, optimizer, loader = build(20 + index)
            trainer.add_model(model, optimizer, loader, BOUNDARIES4, model_id=f"m{index}")
        trainer.fit(num_epochs=1)
        assert manager.stats.as_dict() == {
            "acquire_waits": 0,
            "bytes_evicted": 215424,
            "bytes_fetched": 221952,
            "clean_evictions": 21,
            "demand_fetches": 77,
            "evictions": 75,
            "prefetch_late": 0,
            "prefetches_completed": 0,
            "prefetches_issued": 0,
        }
