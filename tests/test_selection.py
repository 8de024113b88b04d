"""Tests for search spaces, search drivers, experiment tracking, and Cerebro hopping."""

import numpy as np
import pytest

from repro.api import (
    Budget,
    CerebroBackend,
    Experiment,
    FunctionBackend,
    GridSearcher,
    RandomSearcher,
    ResumableFunctionBackend,
    SuccessiveHalvingSearcher,
    make_searcher,
)
from repro.data import make_classification
from repro.exceptions import ConfigurationError, SchedulingError, SearchSpaceError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import SGD, Adam
from repro.selection import (
    Choice,
    LogUniform,
    SearchSpace,
    SelectionResult,
    TrialConfig,
    TrialResult,
    Uniform,
)


class TestDistributions:
    def test_choice_sampling_and_grid(self):
        dist = Choice([1, 2, 3])
        assert dist.grid_values() == [1, 2, 3]
        assert dist.sample(np.random.default_rng(0)) in (1, 2, 3)

    def test_choice_requires_values(self):
        with pytest.raises(SearchSpaceError):
            Choice([])

    def test_uniform_bounds_and_sampling(self):
        dist = Uniform(0.0, 1.0)
        samples = [dist.sample(np.random.default_rng(i)) for i in range(20)]
        assert all(0.0 <= s <= 1.0 for s in samples)
        with pytest.raises(SearchSpaceError):
            Uniform(1.0, 0.5)
        with pytest.raises(SearchSpaceError):
            dist.grid_values()

    def test_log_uniform(self):
        dist = LogUniform(1e-4, 1e-1)
        samples = [dist.sample(np.random.default_rng(i)) for i in range(50)]
        assert all(1e-4 <= s <= 1e-1 for s in samples)
        with pytest.raises(SearchSpaceError):
            LogUniform(0.0, 1.0)


class TestSearchSpace:
    def test_grid_enumeration(self):
        space = SearchSpace({"lr": [0.1, 0.01], "width": [32, 64, 128]})
        grid = list(space.grid())
        assert len(grid) == 6
        assert space.grid_size() == 6
        assert {"lr", "width"} == set(grid[0])

    def test_sequences_become_choices(self):
        space = SearchSpace({"depth": (1, 2, 3)})
        assert "depth" in space
        assert isinstance(space.parameters["depth"], Choice)

    def test_sample_reproducible(self):
        space = SearchSpace({"lr": LogUniform(1e-4, 1e-1), "width": [32, 64]})
        a = space.sample(np.random.default_rng(0))
        b = space.sample(np.random.default_rng(0))
        assert a == b

    def test_validation(self):
        with pytest.raises(SearchSpaceError):
            SearchSpace({})
        with pytest.raises(SearchSpaceError):
            SearchSpace({"lr": 0.1})

    def test_grid_with_continuous_parameter_rejected(self):
        space = SearchSpace({"lr": Uniform(0, 1)})
        with pytest.raises(SearchSpaceError):
            list(space.grid())


def _selection(objective="loss", mode="min", **scores):
    """A ``SelectionResult`` holding one trial per ``trial_id=score``."""
    result = SelectionResult("unit", objective=objective, mode=mode)
    for trial_id, score in scores.items():
        result.trials.append(TrialResult(trial_id, {}, {objective: score}, 1))
    return result


class TestExperimentTracker:
    """Experiment tracking: the runner records into one ``SelectionResult``."""

    def test_record_and_best_min_mode(self):
        assert _selection(a=0.5, b=0.2).best().trial_id == "b"

    def test_best_max_mode(self):
        assert _selection("accuracy", "max", a=0.7, b=0.9).best().trial_id == "b"

    def test_missing_objective_rejected(self):
        experiment = Experiment(
            SearchSpace({"x": [1]}), "grid", objective="loss",
            backend=FunctionBackend(lambda trial, epochs: {"accuracy": 0.5}),
        )
        with pytest.raises(SearchSpaceError, match="lack the objective 'loss'"):
            experiment.run()

    def test_invalid_mode(self):
        with pytest.raises(SearchSpaceError):
            SelectionResult("unit", objective="loss", mode="maximize")
        experiment = Experiment(
            SearchSpace({"x": [1]}), "grid", mode="maximize",
            backend=FunctionBackend(lambda trial, epochs: {"loss": 0.5}),
        )
        with pytest.raises(SearchSpaceError):
            experiment.run()

    def test_wall_time_measured_when_started(self):
        result = _search(SearchSpace({"lr": [1e-2]}), GridSearcher())
        assert result.trials[0].wall_seconds > 0.0

    def test_selection_result_ranking_and_metric_access(self):
        result = _selection(a=0.9, b=0.1)
        assert [t.trial_id for t in result.ranked()] == ["b", "a"]
        assert len(result) == 2
        with pytest.raises(KeyError):
            result.best().metric("f1")

    def test_empty_selection_result(self):
        with pytest.raises(SearchSpaceError):
            SelectionResult("unit", objective="loss", mode="min").best()


def _toy_train_fn(trial: TrialConfig, num_epochs: int):
    """Deterministic surrogate objective: quadratic in log-lr with a depth penalty."""
    lr = float(trial.get("lr", 0.01))
    depth = int(trial.get("depth", 1))
    loss = (np.log10(lr) + 2.0) ** 2 + 0.05 * depth + 1.0 / (1 + num_epochs)
    return {"loss": float(loss)}


def _search(space, searcher, epochs=1):
    """One surrogate-objective experiment (the searchers live in ``repro.api``)."""
    return Experiment(
        space, searcher, backend=FunctionBackend(_toy_train_fn),
        budget=Budget(epochs_per_trial=epochs),
    ).run()


class TestGridSearch:
    def test_explores_whole_grid_and_finds_optimum(self):
        space = SearchSpace({"lr": [1e-3, 1e-2, 1e-1], "depth": [1, 2]})
        result = _search(space, GridSearcher(), epochs=3)
        assert len(result) == 6
        assert result.best().hyperparameters["lr"] == pytest.approx(1e-2)
        assert result.best().hyperparameters["depth"] == 1

    def test_max_trials_cap(self):
        space = SearchSpace({"lr": [1e-3, 1e-2, 1e-1]})
        assert len(_search(space, GridSearcher(max_trials=2))) == 2


class TestRandomSearch:
    def test_samples_requested_number(self):
        space = SearchSpace({"lr": LogUniform(1e-4, 1e-1), "depth": [1, 2, 3]})
        assert len(_search(space, RandomSearcher(num_trials=10, seed=0))) == 10

    def test_seed_reproducibility(self):
        space = SearchSpace({"lr": LogUniform(1e-4, 1e-1)})
        a = _search(space, RandomSearcher(num_trials=5, seed=1))
        b = _search(space, RandomSearcher(num_trials=5, seed=1))
        assert [t.hyperparameters for t in a.trials] == [t.hyperparameters for t in b.trials]

    def test_validation(self):
        # By name, as ``Experiment(searcher="random")`` resolves it.
        with pytest.raises(ValueError):
            make_searcher("random", num_trials=0)


class TestSuccessiveHalving:
    @staticmethod
    def _resumable_train_fn(trial, num_epochs, state):
        epochs_so_far = (state or 0) + num_epochs
        metrics = _toy_train_fn(trial, epochs_so_far)
        return metrics, epochs_so_far

    def _halve(self, **searcher_options):
        return Experiment(
            SearchSpace({"lr": LogUniform(1e-4, 1e-1)}),
            SuccessiveHalvingSearcher(reduction_factor=2, seed=0, **searcher_options),
            backend=ResumableFunctionBackend(self._resumable_train_fn),
        ).run()

    def test_culls_to_single_survivor(self):
        result = self._halve(num_trials=8, min_epochs=1)
        # 8 + 4 + 2 + 1 evaluations across rungs.
        assert len(result) == 15
        epochs = [t.epochs_trained for t in result.trials]
        assert max(epochs) > min(epochs)

    def test_budget_grows_for_survivors(self):
        result = self._halve(num_trials=4, min_epochs=2)
        assert result.best().epochs_trained >= 2

    def test_validation(self):
        with pytest.raises(SearchSpaceError):
            make_searcher("sha", num_trials=1)
        with pytest.raises(SearchSpaceError):
            make_searcher("asha", num_trials=4, reduction_factor=1)


class TestCerebroModelHopper:
    """Cerebro model hopping, trained by :class:`CerebroBackend`."""

    def _dataset(self):
        return make_classification(num_samples=64, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(0))

    @staticmethod
    def _build(trial):
        model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=trial.get("seed", 0))
        return model, Adam(model.parameters(), lr=1e-2)

    def _backend(self, **options):
        options.setdefault("num_workers", 2)
        return CerebroBackend(self._dataset(), builder=self._build, batch_size=16,
                              seed=0, **options)

    def _train(self, backend, trial_ids, epochs):
        """Per-epoch losses of one cohort, trained an epoch at a time."""
        handles = [backend.prepare(TrialConfig(t, {"seed": i}))
                   for i, t in enumerate(trial_ids)]
        losses = {t: [] for t in trial_ids}
        for _ in range(epochs):
            metrics = backend.train_many(handles, 1)
            for handle in handles:
                handle.epochs_trained += 1
                losses[handle.trial_id].append(metrics[handle.trial_id]["loss"])
        return handles, losses

    def test_requires_models(self):
        backend = self._backend()
        assert backend.train_many([], 1) == {}
        with pytest.raises(SchedulingError):
            backend.make_driver([]).train_epoch(0)

    def test_requires_positive_workers(self):
        for workers in (0, -1):
            with pytest.raises(ConfigurationError):
                self._backend(num_workers=workers)

    def test_epoch_covers_every_partition_once(self):
        backend = self._backend(num_workers=3)
        dataset = backend.dataset
        row_of = {dataset[i]["features"].tobytes(): i for i in range(len(dataset))}
        loader = backend.prepare(TrialConfig("t", {})).state.loader
        for epoch in range(3):
            loader.set_epoch(epoch)
            rows = [row_of[features.tobytes()]
                    for batch in loader for features in batch["features"]]
            assert sorted(rows) == list(range(len(dataset)))  # each example once
            # Partitions are visited whole, starting at the epoch's offset.
            for hop in range(3):
                partition = backend.partitions[(epoch + hop) % 3]
                visit, rows = rows[:len(partition)], rows[len(partition):]
                assert sorted(visit) == sorted(partition.indices)

    def test_training_reduces_loss(self):
        _, losses = self._train(self._backend(), ["m0", "m1"], epochs=3)
        for per_epoch in losses.values():
            assert per_epoch[-1] < per_epoch[0]

    def test_memory_budget_copy_keeps_the_class(self):
        """The budget is a constructor argument: one arena per worker, the
        same partitions as the unbudgeted backend."""
        backend = self._backend(num_workers=3, num_shards=2)
        budgeted = self._backend(num_workers=3, num_shards=2, memory_budget=1 << 20)
        try:
            assert backend.memory is None and budgeted.memory is not None
            assert budgeted.memory.arena_names == ["dev0", "dev1", "dev2"]
            assert budgeted.num_shards == 2
            assert [p.indices for p in budgeted.partitions] == [
                p.indices for p in backend.partitions
            ]
        finally:
            budgeted.close()

    def test_sharded_models_supported(self):
        handles, losses = self._train(self._backend(num_shards=2), ["sharded"], epochs=1)
        assert handles[0].annotations["num_shards"] == 2
        assert len(handles[0].state.boundaries) == 2
        assert np.isfinite(losses["sharded"][0])
