"""End-to-end integration tests crossing module boundaries.

These tests exercise the complete pipelines the paper describes: profiling a
model, sharding it for the cluster, scheduling a multi-model selection run,
and really training candidate models with shard-parallel interleaving.
"""

import numpy as np
import pytest

from repro import HydraConfig, HydraSession
from repro.api import Budget, Experiment, FunctionBackend, GridSearcher
from repro.cluster import Cluster
from repro.data import DataLoader, SyntheticSpanDataset, make_classification
from repro.models import BertConfig, BertForSpanPrediction, FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam, AdamW, LinearWarmupDecay
from repro.scheduler import (
    ModelParallelStrategy,
    ShardParallelStrategy,
    TaskParallelStrategy,
    TrainingJob,
)
from repro.selection import SearchSpace
from repro.sharding import make_plan, validate_plan
from repro.cluster import GPU_PRESETS
from repro.training import ShardParallelTrainer, Trainer

GIB = 1024 ** 3


class TestSimulationPipeline:
    """Profile -> shard -> place -> simulate, at the paper's BERT-Large scale."""

    def test_full_bert_large_selection_simulation(self):
        session = HydraSession(HydraConfig(num_devices=4))
        profile = BertConfig.bert_large().profile(seq_len=384)

        # The paper's premise: the model cannot train on one 16 GB device.
        assert profile.total_memory_bytes(batch_size=32) > 16 * GIB

        jobs = [
            session.make_job(f"bert-config-{i}", profile, num_epochs=1,
                             batches_per_epoch=3, batch_size=32)
            for i in range(4)
        ]
        for job in jobs:
            validate_plan(job.plan, GPU_PRESETS["v100-16gb"])

        comparison = session.compare_strategies(jobs)
        shard = comparison["shard-parallel"].unwrap()
        model = comparison["model-parallel"].unwrap()
        assert not comparison["task-parallel"].feasible
        assert shard.makespan < model.makespan
        assert shard.cluster_utilization > model.cluster_utilization
        assert shard.throughput_samples_per_second > model.throughput_samples_per_second
        # Memory stays within the devices in both feasible strategies.
        for result in (shard, model):
            assert max(result.trace.peak_memory_bytes.values()) <= 16 * GIB

    def test_scaling_with_model_count_improves_hydra_advantage(self):
        """More candidate models -> more independent shards -> bigger win for Hydra."""
        cluster = Cluster.single_server(4, "v100-16gb")
        profile = BertConfig.bert_large().profile(seq_len=384)

        def speedup(num_models):
            jobs = [
                TrainingJob(
                    model_id=f"m{i}",
                    plan=make_plan(f"m{i}", profile, batch_size=16, num_shards=4),
                    num_epochs=1,
                    batches_per_epoch=2,
                    samples_per_batch=16,
                )
                for i in range(num_models)
            ]
            cluster.reset()
            mp = ModelParallelStrategy().schedule(jobs, cluster)
            cluster.reset()
            sp = ShardParallelStrategy().schedule(jobs, cluster)
            return sp.speedup_over(mp)

        assert speedup(4) > speedup(1)
        assert speedup(4) > 1.5


class TestRealTrainingPipeline:
    def test_grid_search_over_really_trained_mlps(self):
        """The radiologist scenario: a small grid of configs, each really trained."""
        data = make_classification(num_samples=128, num_features=16, num_classes=4,
                                   class_separation=3.0, rng=np.random.default_rng(0))

        def train_fn(trial, num_epochs):
            config = FeedForwardConfig(
                input_dim=16,
                hidden_dims=(trial.get("width"), trial.get("width") // 2),
                num_classes=4,
            )
            model = FeedForwardNetwork(config, seed=0)
            loader = DataLoader(data, batch_size=16, shuffle=True, seed=0)
            trainer = Trainer(model, Adam(model.parameters(), lr=trial.get("lr")), loader,
                              eval_loader=DataLoader(data, batch_size=32))
            report = trainer.fit(num_epochs)
            metrics = trainer.evaluate()
            return {"loss": report.final_loss, "accuracy": metrics["accuracy"]}

        space = SearchSpace({"lr": [1e-2, 1e-3], "width": [16, 32]})
        result = Experiment(
            space, GridSearcher(), backend=FunctionBackend(train_fn),
            objective="accuracy", mode="max", budget=Budget(epochs_per_trial=2),
        ).run()
        assert len(result) == 4
        assert result.best().metric("accuracy") > 0.6

    def test_bert_finetuning_with_warmup_and_sharding(self):
        """Mini version of the paper's BERT/SQuAD fine-tuning workload."""
        config = BertConfig.tiny(vocab_size=64, seq_len=32)
        dataset = SyntheticSpanDataset(num_samples=48, seq_len=32, vocab_size=64,
                                       rng=np.random.default_rng(0))
        model = BertForSpanPrediction(config, seed=0)
        loader = DataLoader(dataset, batch_size=8, shuffle=True, seed=0)
        optimizer = AdamW(model.parameters(), lr=5e-3, weight_decay=0.01)
        scheduler = LinearWarmupDecay(optimizer, warmup_steps=5, total_steps=40)
        trainer = Trainer(model, optimizer, loader, scheduler=scheduler)
        report = trainer.fit(num_epochs=3)
        assert report.epochs[-1]["loss"] < report.epochs[0]["loss"]

    def test_multi_model_shard_parallel_training_converges(self):
        data = make_classification(num_samples=96, num_features=16, num_classes=4,
                                   class_separation=3.0, rng=np.random.default_rng(2))
        trainer = ShardParallelTrainer(num_devices=2)
        for index, lr in enumerate([3e-3, 1e-2, 3e-2]):
            model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=index)
            trainer.add_model(
                model,
                Adam(model.parameters(), lr=lr),
                DataLoader(data, batch_size=16, shuffle=True, seed=index),
                [(0, 1), (1, 3)],
                model_id=f"lr-{lr}",
            )
        reports = trainer.fit(num_epochs=4)
        assert all(r.epochs[-1]["loss"] < r.epochs[0]["loss"] for r in reports.values())


class TestPaperClaimsEndToEnd:
    def test_memory_reduction_headline(self):
        """§4.2: model parallelism gives ~3x per-device memory reduction for BERT-Large."""
        profile = BertConfig.bert_large().profile(seq_len=384)
        plan = make_plan("bert-large", profile, batch_size=32, num_shards=4)
        unsharded = profile.total_memory_bytes(batch_size=32)
        largest_shard = plan.max_shard_working_bytes
        reduction = unsharded / largest_shard
        assert reduction >= 3.0

    def test_desiderata_d1_d2_hold_on_default_testbed(self):
        session = HydraSession()
        profile = BertConfig.bert_large().profile(seq_len=384)
        jobs = [session.make_job(f"m{i}", profile, batches_per_epoch=2, batch_size=16,
                                 num_shards=4) for i in range(4)]
        shard = session.simulate(jobs, strategy="shard-parallel")
        model = session.simulate(jobs, strategy="model-parallel")
        # D1: utilization improves substantially; D2: throughput improves.
        assert shard.cluster_utilization > 2 * model.cluster_utilization
        assert shard.throughput_samples_per_second > 2 * model.throughput_samples_per_second
