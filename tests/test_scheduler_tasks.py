"""Tests for the shard-level task graph, placement, and policies."""

import numpy as np
import pytest

from repro.cluster import Cluster, SimTask
from repro.exceptions import SchedulingError
from repro.models import BertConfig, FeedForwardConfig
from repro.scheduler import (
    Placement,
    ShardTask,
    TaskKind,
    TrainingJob,
    backward_first_policy,
    build_task_graph,
    fifo_policy,
    get_policy,
    memory_aware_placement,
    plan_waves,
    round_robin_placement,
)
from repro.scheduler.task import build_task_graphs, task_id_for
from repro.sharding import make_plan

GIB = 1024 ** 3


def mlp_job(model_id="mlp-0", num_shards=2, epochs=1, batches=2, batch_size=8):
    profile = FeedForwardConfig.paper_1_2m().profile()
    plan = make_plan(model_id, profile, batch_size=batch_size, num_shards=num_shards)
    return TrainingJob(model_id=model_id, plan=plan, num_epochs=epochs,
                       batches_per_epoch=batches, samples_per_batch=batch_size)


def bert_job(model_id="bert-0", num_shards=4, epochs=1, batches=2, batch_size=16):
    profile = BertConfig.bert_large().profile(seq_len=384)
    plan = make_plan(model_id, profile, batch_size=batch_size, num_shards=num_shards)
    return TrainingJob(model_id=model_id, plan=plan, num_epochs=epochs,
                       batches_per_epoch=batches, samples_per_batch=batch_size)


class TestTrainingJob:
    def test_derived_quantities(self):
        job = mlp_job(epochs=3, batches=5, batch_size=8)
        assert job.total_batches == 15
        assert job.total_samples == 120
        assert job.num_shards == 2

    def test_validation(self):
        with pytest.raises(SchedulingError):
            mlp_job(epochs=0)
        with pytest.raises(SchedulingError):
            mlp_job(batches=0)


class TestBuildTaskGraph:
    def test_task_count(self):
        job = mlp_job(num_shards=2, epochs=2, batches=3)
        tasks = build_task_graph(job)
        # forward + backward + update per shard per batch
        assert len(tasks) == 2 * 3 * 2 * 3

    def test_task_count_without_updates(self):
        job = mlp_job(num_shards=2, epochs=1, batches=2)
        tasks = build_task_graph(job, include_updates=False)
        assert len(tasks) == 2 * 2 * 2
        assert all(task.kind != TaskKind.UPDATE for task in tasks)

    def test_forward_chain_dependencies(self):
        tasks = {t.task_id: t for t in build_task_graph(mlp_job(num_shards=3, batches=1))}
        fwd1 = tasks[task_id_for("mlp-0", 0, 0, 1, TaskKind.FORWARD)]
        assert task_id_for("mlp-0", 0, 0, 0, TaskKind.FORWARD) in fwd1.deps

    def test_backward_depends_on_forward_and_downstream(self):
        tasks = {t.task_id: t for t in build_task_graph(mlp_job(num_shards=3, batches=1))}
        bwd1 = tasks[task_id_for("mlp-0", 0, 0, 1, TaskKind.BACKWARD)]
        assert task_id_for("mlp-0", 0, 0, 1, TaskKind.FORWARD) in bwd1.deps
        assert task_id_for("mlp-0", 0, 0, 2, TaskKind.BACKWARD) in bwd1.deps
        last_bwd = tasks[task_id_for("mlp-0", 0, 0, 2, TaskKind.BACKWARD)]
        assert len(last_bwd.deps) == 1  # only its own forward

    def test_update_depends_on_backward(self):
        tasks = {t.task_id: t for t in build_task_graph(mlp_job(num_shards=2, batches=1))}
        update = tasks[task_id_for("mlp-0", 0, 0, 1, TaskKind.UPDATE)]
        assert update.deps == [task_id_for("mlp-0", 0, 0, 1, TaskKind.BACKWARD)]

    def test_next_batch_waits_for_update(self):
        tasks = {t.task_id: t for t in build_task_graph(mlp_job(num_shards=2, batches=2))}
        fwd_b1 = tasks[task_id_for("mlp-0", 0, 1, 0, TaskKind.FORWARD)]
        assert task_id_for("mlp-0", 0, 0, 0, TaskKind.UPDATE) in fwd_b1.deps

    def test_next_epoch_waits_for_previous_epoch(self):
        tasks = {t.task_id: t for t in build_task_graph(mlp_job(num_shards=2, epochs=2, batches=1))}
        fwd_e1 = tasks[task_id_for("mlp-0", 1, 0, 0, TaskKind.FORWARD)]
        assert task_id_for("mlp-0", 0, 0, 0, TaskKind.UPDATE) in fwd_e1.deps

    def test_backward_flops_are_double_forward(self):
        tasks = build_task_graph(mlp_job(num_shards=2, batches=1))
        forwards = {t.shard_index: t for t in tasks if t.kind == TaskKind.FORWARD}
        backwards = {t.shard_index: t for t in tasks if t.kind == TaskKind.BACKWARD}
        for shard, fwd in forwards.items():
            assert backwards[shard].flops == pytest.approx(2 * fwd.flops)

    def test_transfer_bytes_match_shard_boundaries(self):
        job = mlp_job(num_shards=2, batches=1)
        tasks = build_task_graph(job)
        fwd1 = next(t for t in tasks if t.kind == TaskKind.FORWARD and t.shard_index == 1)
        assert fwd1.input_bytes == job.plan.shards[1].input_bytes
        bwd0 = next(t for t in tasks if t.kind == TaskKind.BACKWARD and t.shard_index == 0)
        assert bwd0.input_bytes == job.plan.shards[0].output_bytes

    def test_cross_model_independence(self):
        tasks = build_task_graphs([mlp_job("a"), mlp_job("b")])
        a_ids = {t.task_id for t in tasks if t.model_id == "a"}
        for task in tasks:
            if task.model_id == "b":
                assert not (set(task.deps) & a_ids)

    def test_duplicate_model_ids_rejected(self):
        with pytest.raises(SchedulingError):
            build_task_graphs([mlp_job("same"), mlp_job("same")])

    def test_shard_key_and_tags(self):
        task = build_task_graph(mlp_job())[0]
        assert task.shard_key == "mlp-0/shard0"


class TestPlacement:
    def test_assign_and_lookup(self):
        placement = Placement()
        placement.assign("m", 0, "gpu1")
        assert placement.device_for("m", 0) == "gpu1"
        assert placement.shards_on("gpu1") == [("m", 0)]
        assert placement.devices_used() == ["gpu1"]
        assert len(placement) == 1

    def test_missing_lookup_raises(self):
        with pytest.raises(SchedulingError):
            Placement().device_for("m", 0)

    def test_round_robin_staggers_models(self, four_gpu_cluster):
        jobs = [bert_job(f"b{i}") for i in range(2)]
        placement = round_robin_placement(jobs, four_gpu_cluster, charge_memory=False)
        assert placement.device_for("b0", 0) == "gpu0"
        assert placement.device_for("b1", 0) == "gpu1"
        assert placement.device_for("b0", 1) == "gpu1"

    def test_round_robin_charges_memory(self, four_gpu_cluster):
        jobs = [bert_job("b0")]
        round_robin_placement(jobs, four_gpu_cluster, charge_memory=True)
        assert all(d.used_bytes > 0 for d in four_gpu_cluster.devices)

    def test_memory_aware_balances_free_memory(self, four_gpu_cluster):
        jobs = [bert_job(f"b{i}", num_shards=4) for i in range(2)]
        memory_aware_placement(jobs, four_gpu_cluster)
        used = [d.used_bytes for d in four_gpu_cluster.devices]
        assert max(used) < 2.5 * min(used)

    def test_memory_aware_rejects_oversized_shard(self, two_gpu_cluster):
        job = bert_job("big", num_shards=1, batch_size=32)
        with pytest.raises(SchedulingError):
            memory_aware_placement([job], two_gpu_cluster)

    def test_memory_aware_rejects_when_cluster_full(self, two_gpu_cluster):
        jobs = [bert_job(f"b{i}", num_shards=2, batch_size=32) for i in range(6)]
        with pytest.raises(SchedulingError):
            memory_aware_placement(jobs, two_gpu_cluster)


class TestWavePlanning:
    def test_single_wave_when_everything_fits(self, four_gpu_cluster):
        jobs = [bert_job(f"b{i}") for i in range(2)]
        waves = plan_waves(jobs, four_gpu_cluster)
        assert len(waves) == 1
        assert len(waves[0]) == 2

    def test_multiple_waves_when_cluster_is_small(self, four_gpu_cluster):
        jobs = [bert_job(f"b{i}", batch_size=32) for i in range(8)]
        waves = plan_waves(jobs, four_gpu_cluster)
        assert len(waves) >= 2
        assert sum(len(wave) for wave in waves) == 8

    def test_impossible_job_rejected(self, two_gpu_cluster):
        job = bert_job("impossible", num_shards=1, batch_size=32)
        with pytest.raises(SchedulingError):
            plan_waves([job], two_gpu_cluster)

    def test_wave_order_preserves_submission_order(self, four_gpu_cluster):
        jobs = [bert_job(f"b{i}", batch_size=32) for i in range(6)]
        waves = plan_waves(jobs, four_gpu_cluster)
        flattened = [job.model_id for wave in waves for job in wave]
        assert flattened == [f"b{i}" for i in range(6)]


class TestPolicies:
    def _ready(self):
        return [
            SimTask("fwd-new", "gpu0", tags={"kind": "forward", "epoch": 0, "batch": 3, "model": "b"}),
            SimTask("bwd-old", "gpu0", tags={"kind": "backward", "epoch": 0, "batch": 1, "model": "a"}),
            SimTask("upd-old", "gpu0", tags={"kind": "update", "epoch": 0, "batch": 1, "model": "c"}),
        ]

    def test_fifo_returns_first(self):
        ready = self._ready()
        assert fifo_policy("gpu0", ready) is ready[0]

    def test_backward_first_prefers_updates_then_backwards(self):
        ready = self._ready()
        assert backward_first_policy("gpu0", ready).task_id == "upd-old"
        ready = [t for t in ready if t.task_id != "upd-old"]
        assert backward_first_policy("gpu0", ready).task_id == "bwd-old"

    def test_model_round_robin_picks_a_ready_task(self):
        chosen = get_policy("model_round_robin")("gpu0", self._ready())
        assert chosen.tags["model"] == "a"

    def test_random_policy_deterministic_with_seed(self):
        from repro.scheduler.policies import random_policy_factory

        ready = self._ready()
        a = random_policy_factory(3)
        b = random_policy_factory(3)
        assert [a("gpu0", ready).task_id for _ in range(5)] == [
            b("gpu0", ready).task_id for _ in range(5)
        ]

    def test_random_policy_returns_member(self):
        ready = self._ready()
        assert get_policy("random", seed=0)("gpu0", ready) in ready

    def test_get_policy_by_name(self):
        assert get_policy("fifo") is fifo_policy
        assert callable(get_policy("model_round_robin"))
        assert callable(get_policy("random", seed=1))
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_policy("not-a-policy")
