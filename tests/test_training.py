"""Tests for the real training engines: Trainer, sharded executor, metrics, checkpoints."""

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticSpanDataset, make_classification
from repro.data.dataloader import Batch
from repro.exceptions import CheckpointError, SchedulingError
from repro.models import BertConfig, BertForSpanPrediction, FeedForwardConfig, FeedForwardNetwork
from repro.optim import SGD, Adam
from repro.training import (
    MetricTracker,
    ShardedModelExecutor,
    ShardParallelTrainer,
    Trainer,
    accuracy_from_logits,
    load_checkpoint,
    save_checkpoint,
)


class TestMetrics:
    def test_accuracy_from_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0]])
        labels = np.array([0, 1, 1])
        assert accuracy_from_logits(logits, labels) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_from_logits(np.zeros((2, 3)), np.zeros(3))

    def test_metric_tracker_epoch_means(self):
        tracker = MetricTracker()
        tracker.update(loss=1.0)
        tracker.update(loss=3.0, accuracy=0.5)
        snapshot = tracker.end_epoch()
        assert snapshot["loss"] == pytest.approx(2.0)
        assert snapshot["accuracy"] == pytest.approx(0.5)
        assert tracker.latest() == snapshot

    def test_metric_tracker_errors(self):
        tracker = MetricTracker()
        with pytest.raises(KeyError):
            tracker.mean("loss")
        with pytest.raises(ValueError):
            tracker.latest()


class TestTrainer:
    def _setup(self, lr=1e-2, seed=0):
        data = make_classification(num_samples=96, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(3))
        model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=seed)
        loader = DataLoader(data, batch_size=16, shuffle=True, seed=seed)
        eval_loader = DataLoader(data, batch_size=32)
        return Trainer(model, Adam(model.parameters(), lr=lr), loader, eval_loader=eval_loader)

    def test_fit_reduces_loss(self):
        trainer = self._setup()
        report = trainer.fit(num_epochs=4)
        assert len(report.epochs) == 4
        assert report.final_loss < report.epochs[0]["loss"]
        assert report.metric_series("loss") == [e["loss"] for e in report.epochs]

    def test_evaluation_metrics_present(self):
        trainer = self._setup()
        report = trainer.fit(num_epochs=2)
        assert "eval_loss" in report.epochs[-1]
        assert "eval_accuracy" in report.epochs[-1]
        assert report.epochs[-1]["eval_accuracy"] > 0.5

    def test_evaluate_requires_a_loader(self):
        trainer = self._setup()
        trainer.eval_loader = None
        with pytest.raises(ValueError):
            trainer.evaluate()

    def test_evaluate_restores_training_mode(self):
        trainer = self._setup()
        trainer.evaluate(DataLoader(make_classification(num_samples=16, num_features=16,
                                                        num_classes=4,
                                                        rng=np.random.default_rng(0)),
                                    batch_size=8))
        assert trainer.model.training is True

    def test_scheduler_is_stepped(self):
        from repro.optim import StepDecay

        trainer = self._setup()
        trainer.scheduler = StepDecay(trainer.optimizer, step_size=1, gamma=0.5)
        initial_lr = trainer.optimizer.lr
        trainer.fit(num_epochs=1)
        assert trainer.optimizer.lr < initial_lr


class TestShardedModelExecutor:
    def test_boundary_validation(self, tiny_mlp):
        with pytest.raises(SchedulingError):
            ShardedModelExecutor(tiny_mlp, [(0, 1), (2, 3)])
        with pytest.raises(SchedulingError):
            ShardedModelExecutor(tiny_mlp, [(0, 2)])

    def test_forward_only_matches_whole_model(self, tiny_mlp, classification_batch):
        executor = ShardedModelExecutor(tiny_mlp, [(0, 1), (1, 3)])
        sharded = executor.forward_only(classification_batch)
        whole = tiny_mlp.forward(classification_batch)
        assert np.allclose(sharded.data, whole.data, atol=1e-6)

    def test_loss_before_backward_enforced(self, tiny_mlp, classification_batch):
        executor = ShardedModelExecutor(tiny_mlp, [(0, 3)])
        executor.begin_batch()
        executor.run_forward(0, classification_batch)
        with pytest.raises(SchedulingError):
            executor.run_backward(0)

    def test_shard_parameters_partition(self, tiny_mlp):
        executor = ShardedModelExecutor(tiny_mlp, [(0, 2), (2, 3)])
        counts = [len(executor.shard_parameters(i)) for i in range(2)]
        assert sum(counts) == len(list(tiny_mlp.parameters()))

    def test_train_step_reduces_loss_over_time(self, tiny_mlp, classification_data):
        executor = ShardedModelExecutor(tiny_mlp, [(0, 1), (1, 3)])
        optimizer = Adam(tiny_mlp.parameters(), lr=1e-2)
        loader = DataLoader(classification_data, batch_size=16, shuffle=True, seed=0)
        losses = []
        for _ in range(3):
            for batch in loader:
                losses.append(executor.train_step(batch, optimizer))
        assert losses[-1] < losses[0]


class TestGradientParity:
    """Paper desideratum D3: sharding must not change the training output."""

    def _mlp_pair(self, seed=11):
        config = FeedForwardConfig.tiny()
        return FeedForwardNetwork(config, seed=seed), FeedForwardNetwork(config, seed=seed)

    @pytest.mark.parametrize("boundaries", [[(0, 1), (1, 3)], [(0, 2), (2, 3)],
                                            [(0, 1), (1, 2), (2, 3)]])
    def test_mlp_gradients_identical_for_any_sharding(self, boundaries, classification_batch):
        reference, sharded = self._mlp_pair()
        loss_ref = reference.loss_on_batch(classification_batch)
        reference.zero_grad()
        loss_ref.backward()

        executor = ShardedModelExecutor(sharded, boundaries)
        executor.begin_batch()
        sharded.zero_grad()
        for index in range(executor.num_shards):
            executor.run_forward(index, classification_batch)
        loss_sharded = executor.compute_loss(classification_batch)
        for index in reversed(range(executor.num_shards)):
            executor.run_backward(index)

        assert loss_sharded.item() == pytest.approx(loss_ref.item(), abs=1e-7)
        for (name, p_ref), (_, p_sharded) in zip(
            reference.named_parameters(), sharded.named_parameters()
        ):
            assert np.allclose(p_ref.grad, p_sharded.grad, atol=1e-6), name

    def test_bert_gradients_match_under_sharding(self, span_batch):
        config = BertConfig.tiny(vocab_size=64, seq_len=32)
        reference = BertForSpanPrediction(config, seed=5)
        sharded = BertForSpanPrediction(config, seed=5)

        loss_ref = reference.loss_on_batch(span_batch)
        reference.zero_grad()
        loss_ref.backward()

        executor = ShardedModelExecutor(sharded, [(0, 1), (1, 3), (3, 4)])
        loss_sharded_value = None
        executor.begin_batch()
        sharded.zero_grad()
        for index in range(executor.num_shards):
            executor.run_forward(index, span_batch)
        loss_sharded_value = executor.compute_loss(span_batch).item()
        for index in reversed(range(executor.num_shards)):
            executor.run_backward(index)

        assert loss_sharded_value == pytest.approx(loss_ref.item(), abs=1e-6)
        for (name, p_ref), (_, p_sharded) in zip(
            reference.named_parameters(), sharded.named_parameters()
        ):
            assert np.allclose(p_ref.grad, p_sharded.grad, atol=1e-5), name

    def test_multi_step_training_trajectories_identical(self, classification_data):
        """Not just one gradient: whole optimisation trajectories must coincide."""
        reference, sharded = self._mlp_pair(seed=21)
        loader_ref = DataLoader(classification_data, batch_size=16, shuffle=True, seed=9)
        loader_sharded = DataLoader(classification_data, batch_size=16, shuffle=True, seed=9)
        opt_ref = SGD(reference.parameters(), lr=0.05, momentum=0.9)
        opt_sharded = SGD(sharded.parameters(), lr=0.05, momentum=0.9)
        executor = ShardedModelExecutor(sharded, [(0, 2), (2, 3)])

        for epoch in range(2):
            loader_ref.set_epoch(epoch)
            loader_sharded.set_epoch(epoch)
            for batch_ref, batch_sharded in zip(loader_ref, loader_sharded):
                loss = reference.loss_on_batch(batch_ref)
                reference.zero_grad()
                loss.backward()
                opt_ref.step()
                executor.train_step(batch_sharded, opt_sharded)

        for (name, p_ref), (_, p_sharded) in zip(
            reference.named_parameters(), sharded.named_parameters()
        ):
            assert np.allclose(p_ref.data, p_sharded.data, atol=1e-5), name


class TestShardParallelTrainer:
    def test_requires_positive_devices(self):
        with pytest.raises(ValueError):
            ShardParallelTrainer(num_devices=0)

    def test_requires_models(self):
        with pytest.raises(SchedulingError):
            ShardParallelTrainer(num_devices=2).train_epoch()

    def test_interleaved_training_matches_isolated_training(self, classification_data):
        """Interleaving shard tasks of several models must not change any model's result."""
        config = FeedForwardConfig.tiny()
        seeds = [31, 32]

        def make_loader(seed):
            return DataLoader(classification_data, batch_size=16, shuffle=True, seed=seed)

        # Isolated reference runs.
        reference_params = {}
        for seed in seeds:
            model = FeedForwardNetwork(config, seed=seed)
            optimizer = SGD(model.parameters(), lr=0.05)
            executor = ShardedModelExecutor(model, [(0, 2), (2, 3)])
            loader = make_loader(seed)
            for epoch in range(2):
                loader.set_epoch(epoch)
                for batch in loader:
                    executor.train_step(batch, optimizer)
            reference_params[seed] = model.state_dict()

        # Interleaved run.
        trainer = ShardParallelTrainer(num_devices=2)
        models = {}
        for seed in seeds:
            model = FeedForwardNetwork(config, seed=seed)
            models[seed] = model
            trainer.add_model(model, SGD(model.parameters(), lr=0.05), make_loader(seed),
                              [(0, 2), (2, 3)], model_id=f"seed{seed}")
        trainer.fit(num_epochs=2)

        for seed in seeds:
            for name, expected in reference_params[seed].items():
                actual = dict(models[seed].named_parameters())[name].data
                assert np.allclose(actual, expected, atol=1e-6), (seed, name)

    def test_device_assignment_staggers_models(self):
        trainer = ShardParallelTrainer(num_devices=2)
        data = make_classification(num_samples=32, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(0))
        for seed in range(2):
            model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=seed)
            trainer.add_model(model, SGD(model.parameters(), lr=0.1),
                              DataLoader(data, batch_size=16), [(0, 1), (1, 3)])
        assert trainer.device_of(0, 0) != trainer.device_of(1, 0)
        assert trainer.num_models == 2

    def test_reports_per_model(self, classification_data):
        trainer = ShardParallelTrainer(num_devices=2)
        for seed in range(3):
            model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=seed)
            trainer.add_model(model, Adam(model.parameters(), lr=1e-2),
                              DataLoader(classification_data, batch_size=16, shuffle=True, seed=seed),
                              [(0, 1), (1, 2), (2, 3)], model_id=f"m{seed}")
        reports = trainer.fit(num_epochs=2)
        assert set(reports) == {"m0", "m1", "m2"}
        for report in reports.values():
            assert len(report.epochs) == 2
            assert report.epochs[1]["loss"] < report.epochs[0]["loss"]


class TestCheckpointing:
    def test_roundtrip(self, tmp_path, tiny_mlp):
        path = tmp_path / "model.npz"
        save_checkpoint(tiny_mlp, path, metadata={"epoch": 3})
        clone = FeedForwardNetwork(tiny_mlp.config, seed=99)
        assert not np.allclose(clone.blocks[0].linear.weight.data,
                               tiny_mlp.blocks[0].linear.weight.data)
        metadata = load_checkpoint(clone, path)
        assert np.allclose(clone.blocks[0].linear.weight.data,
                           tiny_mlp.blocks[0].linear.weight.data)
        assert int(metadata["epoch"]) == 3

    def test_missing_file(self, tmp_path, tiny_mlp):
        with pytest.raises(CheckpointError):
            load_checkpoint(tiny_mlp, tmp_path / "missing.npz")

    def test_suffix_added_when_needed(self, tmp_path, tiny_mlp):
        path = tmp_path / "checkpoint"
        save_checkpoint(tiny_mlp, path)
        load_checkpoint(FeedForwardNetwork(tiny_mlp.config, seed=1), path)


class TestMmapAlignment:
    """Uncompressed archives must mmap to BLAS-aligned parameter views.

    Misaligned operands steer BLAS onto different kernels, which changes
    low-order result bits — so zero-copy serving would silently break the
    ``mmap == eager`` exactness guarantee.  The writer therefore pads zip
    members so every array's file offset is 64-byte aligned, and the mapper
    falls back to a copy for any stray unaligned member.
    """

    @staticmethod
    def _memmap_backed(values: np.ndarray) -> bool:
        base = values
        while base is not None:
            if isinstance(base, np.memmap):
                return True
            base = getattr(base, "base", None)
        return False

    def test_uncompressed_archives_align_member_data(self, tmp_path, tiny_mlp):
        from repro.training.checkpoint import map_checkpoint_parameters

        path = tmp_path / "aligned.npz"
        save_checkpoint(tiny_mlp, path)
        clone = FeedForwardNetwork(tiny_mlp.config, seed=99)
        map_checkpoint_parameters(clone, path)
        for (name, expected), (_, mapped) in zip(
            tiny_mlp.named_parameters(), clone.named_parameters()
        ):
            assert np.array_equal(expected.data, mapped.data), name
            # Zero-copy (a true mmap view), at a BLAS-aligned address — the
            # aligned writer means the copy fallback never fires here.
            assert self._memmap_backed(mapped.data), name
            assert mapped.data.ctypes.data % 64 == 0, (
                f"{name} mapped at a misaligned address"
            )

    def test_aligned_archive_still_loads_with_numpy(self, tmp_path, tiny_mlp):
        # The alignment padding lives in zip extra fields: a plain np.load
        # (and therefore every existing consumer) reads the archive as-is.
        path = tmp_path / "aligned.npz"
        save_checkpoint(tiny_mlp, path)
        with np.load(path) as archive:
            for name, parameter in tiny_mlp.named_parameters():
                assert np.array_equal(archive[f"param::{name}"], parameter.data)

    def test_mmap_forward_equals_eager_forward(self, tmp_path, tiny_mlp):
        from repro.training.checkpoint import map_checkpoint_parameters

        path = tmp_path / "aligned.npz"
        save_checkpoint(tiny_mlp, path)
        mapped = FeedForwardNetwork(tiny_mlp.config, seed=99)
        map_checkpoint_parameters(mapped, path)
        rng = np.random.default_rng(17)
        for rows in (1, 3, 8):  # GEMV and GEMM shapes both stay exact
            features = rng.normal(
                size=(rows, tiny_mlp.config.input_dim)
            ).astype(np.float32)
            batch = {"features": features}
            expected = tiny_mlp.forward(Batch(arrays=batch))
            actual = mapped.forward(Batch(arrays=batch))
            assert np.array_equal(expected.data, actual.data), rows


class TestSchedulerCheckpointing:
    """Mid-trial resume with a warmup/decay schedule must be bit-identical."""

    def _trainer(self, seed=0, dropout=0.0):
        from dataclasses import replace

        from repro.optim import LinearWarmupDecay

        data = make_classification(num_samples=64, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(3))
        config = replace(FeedForwardConfig.tiny(), dropout=dropout)
        model = FeedForwardNetwork(config, seed=seed)
        optimizer = Adam(model.parameters(), lr=1e-2)
        scheduler = LinearWarmupDecay(optimizer, warmup_steps=3, total_steps=12)
        loader = DataLoader(data, batch_size=16, shuffle=True, seed=seed)
        return Trainer(model, optimizer, loader, scheduler=scheduler)

    def test_resume_is_bit_identical(self, tmp_path):
        self._check_resume(tmp_path, dropout=0.0)

    def test_resume_with_dropout_is_bit_identical(self, tmp_path):
        """The dropout masks after a resume are the ones training would draw."""
        self._check_resume(tmp_path, dropout=0.3)

    def _check_resume(self, tmp_path, dropout):
        straight = self._trainer(dropout=dropout)
        straight.fit(num_epochs=2)

        resumed = self._trainer(dropout=dropout)
        resumed.fit(num_epochs=1)
        path = tmp_path / "mid.npz"
        save_checkpoint(resumed.model, path, optimizer=resumed.optimizer,
                        scheduler=resumed.scheduler)

        fresh = self._trainer(dropout=dropout)
        load_checkpoint(fresh.model, path, optimizer=fresh.optimizer,
                        scheduler=fresh.scheduler)
        assert fresh.scheduler.step_count == resumed.scheduler.step_count
        # Resume epoch numbering where the interrupted run stopped, so the
        # shuffle order matches the uninterrupted baseline.
        fresh.loader.set_epoch(1)
        for batch in fresh.loader:
            fresh.train_step(batch)

        for (name, expected), (_, actual) in zip(
            straight.model.named_parameters(), fresh.model.named_parameters()
        ):
            assert np.array_equal(expected.data, actual.data), name
        assert straight.optimizer.lr == fresh.optimizer.lr
        assert straight.scheduler.step_count == fresh.scheduler.step_count

    def test_dropout_generator_states_must_match_the_model(self, tmp_path):
        plain, dropout = self._trainer().model, self._trainer(dropout=0.3).model
        # An archive without ``rng::`` entries loads as before ...
        load_checkpoint(dropout, save_checkpoint(plain, tmp_path / "plain.npz"))
        # ... but recorded generator states need somewhere to go.
        with pytest.raises(CheckpointError):
            load_checkpoint(plain, save_checkpoint(dropout, tmp_path / "dropout.npz"))

    def test_scheduler_restore_requires_sched_section(self, tmp_path):
        trainer = self._trainer()
        path = tmp_path / "no_sched.npz"
        save_checkpoint(trainer.model, path, optimizer=trainer.optimizer)
        other = self._trainer()
        with pytest.raises(CheckpointError):
            load_checkpoint(other.model, path, optimizer=other.optimizer,
                            scheduler=other.scheduler)


class TestNoGradEvaluation:
    """Eval paths must skip the autograd graph without changing any value."""

    def _setup(self):
        data = make_classification(num_samples=48, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(5))
        model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=2)
        return model, DataLoader(data, batch_size=16)

    def test_evaluate_matches_graph_building_loop(self):
        from repro.training import evaluate_model

        model, loader = self._setup()
        # The pre-no_grad behaviour, reproduced by hand: full graphs built.
        losses, accuracies = [], []
        model.eval()
        for batch in loader:
            outputs = model.forward(batch)
            losses.append(model.compute_loss(outputs, batch).item())
            accuracies.append(float((model.predict(outputs) == batch["label"]).mean()))
        model.train()
        expected = {"loss": float(np.mean(losses)), "accuracy": float(np.mean(accuracies))}

        metrics = evaluate_model(model, loader)
        assert metrics == expected  # bit-identical, not merely close

    def test_evaluate_builds_no_graph(self):
        from repro.autograd import is_grad_enabled

        model, loader = self._setup()
        seen = []
        original = model.compute_loss
        model.compute_loss = lambda outputs, batch: (
            seen.append((is_grad_enabled(), outputs._ctx)),
            original(outputs, batch),
        )[1]
        Trainer(model, Adam(model.parameters(), lr=1e-3), loader).evaluate(loader)
        assert seen and all(enabled is False for enabled, _ in seen)
        assert all(ctx is None for _, ctx in seen)

    def test_forward_only_builds_no_graph_and_matches(self, tiny_mlp, classification_batch):
        executor = ShardedModelExecutor(tiny_mlp, [(0, 1), (1, 3)])
        sharded = executor.forward_only(classification_batch)
        whole = tiny_mlp.forward(classification_batch)
        assert np.array_equal(sharded.data, whole.data)
        assert sharded._ctx is None and sharded.requires_grad is False

    def test_accuracy_on_batch_builds_no_graph(self, tiny_mlp, classification_batch):
        seen = []
        original = tiny_mlp.predict
        # The outputs handed to predict must carry no autograd context: the
        # forward ran under no_grad.
        tiny_mlp.predict = lambda outputs: (
            seen.append(outputs._ctx),
            original(outputs),
        )[1]
        accuracy = tiny_mlp.accuracy_on_batch(classification_batch)
        assert 0.0 <= accuracy <= 1.0
        assert seen == [None]
