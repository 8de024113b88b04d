"""E7 — §4.1 Cerebro integration: Hydra + data-parallel model hopping.

The paper plans to pair Hydra with Cerebro, whose model-hopper keeps data
partitions pinned to workers and moves models between them.  This benchmark
runs the hybrid strategy on an 8-GPU cluster (two 4-GPU groups, so two data
partitions) against pure shard parallelism and classic model parallelism, and
additionally trains small models for real on ``CerebroBackend`` to confirm
hopping trains correctly.
"""

import numpy as np
import pytest

from benchmarks.conftest import bert_large_jobs, print_report
from repro.api import Budget, Callback, CerebroBackend, Experiment, FixedSearcher
from repro.cluster import Cluster
from repro.data import make_classification
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.scheduler import (
    HybridShardDataParallelStrategy,
    ModelParallelStrategy,
    ShardParallelStrategy,
)
from repro.selection import TrialConfig

NUM_MODELS = 4
BATCHES = 8


@pytest.mark.benchmark(group="cerebro")
def test_hybrid_shard_data_parallel_simulation(benchmark):
    cluster = Cluster.single_server(8, "v100-16gb")

    def run_all():
        results = {}
        for name, strategy in [
            ("model-parallel", ModelParallelStrategy()),
            ("shard-parallel", ShardParallelStrategy()),
            ("hybrid (2 groups)", HybridShardDataParallelStrategy(num_groups=2)),
        ]:
            cluster.reset()
            results[name] = strategy.schedule(
                bert_large_jobs(NUM_MODELS, batches=BATCHES, batch_size=16), cluster
            )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [name, f"{result.makespan:.2f}", f"{result.cluster_utilization:.3f}",
         f"{result.throughput_samples_per_second:.1f}"]
        for name, result in results.items()
    ]
    print_report(
        "§4.1 — Cerebro-style hybrid (8 GPUs, 2 groups of 4): makespan / utilization / throughput",
        ["strategy", "makespan_s", "utilization", "samples_per_s"],
        rows,
    )

    assert results["hybrid (2 groups)"].makespan < results["model-parallel"].makespan
    assert results["shard-parallel"].makespan < results["model-parallel"].makespan


class _EpochLosses(Callback):
    """Records every trial's loss after each epoch."""

    def __init__(self):
        self.losses = {}

    def on_epoch_end(self, trial, epoch, metrics):
        self.losses.setdefault(trial.trial_id, []).append(metrics["loss"])


def _build(trial):
    model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=trial.get("seed"))
    return model, Adam(model.parameters(), lr=trial.get("lr"))


@pytest.mark.benchmark(group="cerebro")
def test_cerebro_hopper_real_training(benchmark):
    data = make_classification(num_samples=128, num_features=16, num_classes=4,
                               class_separation=3.0, rng=np.random.default_rng(5))
    trials = [
        TrialConfig(f"lr={lr}", {"seed": seed, "lr": lr})
        for seed, lr in enumerate([3e-3, 1e-2, 3e-2, 1e-3])
    ]

    def run():
        recorder = _EpochLosses()
        backend = CerebroBackend(data, builder=_build, num_workers=4, batch_size=16,
                                 num_shards=2, seed=0)
        Experiment(searcher=FixedSearcher(trials), backend=backend,
                   budget=Budget(epochs_per_trial=3), callbacks=[recorder]).run()
        return recorder.losses

    losses = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [model_id, f"{per_epoch[0]:.4f}", f"{per_epoch[-1]:.4f}"]
        for model_id, per_epoch in losses.items()
    ]
    print_report(
        "Cerebro model hopping (real execution, 4 data partitions, 4 two-shard models)",
        ["model", "epoch0_loss", "final_loss"],
        rows,
    )
    assert len(losses) == 4 and all(len(per_epoch) == 3 for per_epoch in losses.values())
    assert all(per_epoch[-1] < per_epoch[0] for per_epoch in losses.values())
