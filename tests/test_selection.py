"""Tests for search spaces, search drivers, experiment tracking, and the Cerebro hopper."""

import numpy as np
import pytest

from repro.api import (
    Budget,
    Experiment,
    FunctionBackend,
    GridSearcher,
    RandomSearcher,
    ResumableFunctionBackend,
    SuccessiveHalvingSearcher,
    make_searcher,
)
from repro.data import make_classification
from repro.exceptions import SchedulingError, SearchSpaceError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import SGD, Adam
from repro.selection import (
    CerebroModelHopper,
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
    def _dataset(self):
        return make_classification(num_samples=64, num_features=16, num_classes=4,
                                   rng=np.random.default_rng(0))

    def _model(self, seed):
        model = FeedForwardNetwork(FeedForwardConfig.tiny(), seed=seed)
        return model, Adam(model.parameters(), lr=1e-2)

    def test_requires_models(self):
        hopper = CerebroModelHopper(self._dataset(), num_workers=2, batch_size=16)
        with pytest.raises(SchedulingError):
            hopper.train_epoch()

    def test_requires_positive_workers(self):
        with pytest.raises(SchedulingError):
            CerebroModelHopper(self._dataset(), num_workers=0)

    def test_hop_schedule_is_a_latin_square(self):
        hopper = CerebroModelHopper(self._dataset(), num_workers=3, batch_size=16)
        for seed in range(3):
            model, optimizer = self._model(seed)
            hopper.add_model(model, optimizer, model_id=f"m{seed}")
        schedule = hopper.hop_schedule(epoch=0)
        assert len(schedule) == 3
        for assignments in schedule:
            workers = [worker for _, worker in assignments]
            assert len(set(workers)) == len(workers)  # no worker double-booked
        visits = {m: set() for m in range(3)}
        for assignments in schedule:
            for model_index, worker in assignments:
                visits[model_index].add(worker)
        assert all(v == {0, 1, 2} for v in visits.values())

    def test_training_reduces_loss(self):
        hopper = CerebroModelHopper(self._dataset(), num_workers=2, batch_size=16, seed=0)
        for seed in range(2):
            model, optimizer = self._model(seed)
            hopper.add_model(model, optimizer, model_id=f"m{seed}")
        reports = hopper.fit(num_epochs=3)
        for report in reports.values():
            assert report.epochs[-1]["loss"] < report.epochs[0]["loss"]

    def test_sharded_models_supported(self):
        hopper = CerebroModelHopper(self._dataset(), num_workers=2, batch_size=16)
        model, optimizer = self._model(0)
        hopper.add_model(model, optimizer, boundaries=[(0, 1), (1, 3)], model_id="sharded")
        results = hopper.train_epoch()
        assert "sharded" in results and np.isfinite(results["sharded"]["loss"])
