"""Tests for the HydraSession facade and run_model_selection."""

import numpy as np
import pytest

from repro import HydraConfig, HydraSession, run_model_selection
from repro.data import DataLoader, make_classification
from repro.exceptions import ConfigurationError
from repro.models import BertConfig, FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam

GIB = 1024 ** 3


class TestHydraConfig:
    def test_defaults_match_paper_testbed(self):
        config = HydraConfig()
        assert config.num_devices == 4
        assert config.gpu == "v100-16gb"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HydraConfig(num_devices=0)
        with pytest.raises(ConfigurationError):
            HydraConfig(default_batch_size=0)


class TestHydraSessionPlanning:
    def test_auto_sharding_for_bert_large(self):
        session = HydraSession()
        plan = session.plan_model("bert", BertConfig.bert_large().profile(seq_len=384),
                                  batch_size=32)
        assert plan.num_shards >= 2
        assert plan.max_shard_working_bytes <= 16 * GIB

    def test_explicit_shard_count(self):
        session = HydraSession()
        plan = session.plan_model("bert", BertConfig.bert_large().profile(seq_len=384),
                                  batch_size=32, num_shards=4)
        assert plan.num_shards == 4

    def test_small_model_gets_single_shard(self):
        session = HydraSession()
        plan = session.plan_model("mlp", FeedForwardConfig.paper_1_2m().profile(), batch_size=32)
        assert plan.num_shards == 1

    def test_model_too_large_for_cluster_rejected(self):
        session = HydraSession(HydraConfig(num_devices=1, gpu="k80-12gb"))
        with pytest.raises(ConfigurationError):
            session.plan_model("bert", BertConfig.bert_large().profile(seq_len=512), batch_size=64)

    def test_make_job(self):
        session = HydraSession()
        job = session.make_job("bert", BertConfig.bert_large().profile(seq_len=384),
                               num_epochs=2, batches_per_epoch=5, batch_size=16)
        assert job.total_batches == 10
        assert job.samples_per_batch == 16


class TestHydraSessionSimulation:
    def _jobs(self, session, count=3):
        profile = BertConfig.bert_large().profile(seq_len=384)
        return [
            session.make_job(f"bert-{i}", profile, num_epochs=1, batches_per_epoch=2,
                             batch_size=16, num_shards=4)
            for i in range(count)
        ]

    def test_simulate_shard_parallel(self):
        session = HydraSession()
        result = session.simulate(self._jobs(session), strategy="shard-parallel")
        assert result.strategy == "shard-parallel"
        assert result.makespan > 0

    def test_unknown_strategy_rejected(self):
        session = HydraSession()
        with pytest.raises(ConfigurationError):
            session.simulate(self._jobs(session), strategy="quantum")

    def test_compare_strategies_marks_infeasible(self):
        session = HydraSession()
        profile = BertConfig.bert_large().profile(seq_len=384)
        jobs = [session.make_job(f"bert-{i}", profile, batches_per_epoch=2,
                                 batch_size=32, num_shards=4) for i in range(2)]
        results = session.compare_strategies(jobs)
        # Larger-than-memory model: task parallelism is skipped with a reason.
        assert not results["task-parallel"].feasible
        assert results["task-parallel"].skip_reason
        with pytest.raises(RuntimeError):
            results["task-parallel"].unwrap()
        assert results["model-parallel"].feasible
        assert results["shard-parallel"].feasible
        shard = results["shard-parallel"].unwrap()
        assert shard.makespan < results["model-parallel"].unwrap().makespan

    def test_available_strategies(self):
        assert "shard-parallel" in HydraSession().available_strategies()

    def test_policy_name_respected(self):
        session = HydraSession(HydraConfig(policy="fifo"))
        result = session.simulate(self._jobs(session), strategy="shard-parallel")
        assert result.makespan > 0


class TestRunModelSelection:
    def test_requires_builders(self):
        with pytest.raises(ConfigurationError):
            run_model_selection({})

    def test_trains_and_ranks_trials(self):
        data = make_classification(num_samples=96, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(1))

        def builder(seed, lr):
            def build():
                model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=seed)
                return (model, Adam(model.parameters(), lr=lr),
                        DataLoader(data, batch_size=16, shuffle=True, seed=seed))
            return build

        builders = {
            "good-lr": builder(0, 1e-2),
            "tiny-lr": builder(1, 1e-5),
        }
        result = run_model_selection(builders, num_devices=2, num_epochs=3)
        assert len(result) == 2
        assert result.best().trial_id == "good-lr"
        assert result.best().metric("loss") < 1.0
        # Wall time is wired through the runner's clock on the real-training path.
        for trial in result.trials:
            assert trial.wall_seconds > 0.0
            assert trial.hyperparameters["model"] == "mlp-tiny"
            assert trial.hyperparameters["num_shards"] == 2
