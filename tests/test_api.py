"""Tests for the declarative experiment API: searchers × backends × callbacks."""

import numpy as np
import pytest

from repro.api import (
    Budget,
    Callback,
    CerebroBackend,
    EarlyStopping,
    Experiment,
    FixedSearcher,
    FunctionBackend,
    GridSearcher,
    RandomSearcher,
    ResumableFunctionBackend,
    ShardParallelBackend,
    SimulationBackend,
    SuccessiveHalvingSearcher,
    TrialTimer,
    make_searcher,
)
from repro.data import DataLoader, make_classification
from repro.exceptions import ConfigurationError, SearchSpaceError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.selection import SearchSpace, TrialConfig

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)

SPACE = SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]})


def _config(trial):
    width = int(trial.get("width", 16))
    return FeedForwardConfig(
        input_dim=8, hidden_dims=(width,), num_classes=3, name=f"mlp-w{width}"
    )


def _build_trainable(trial):
    model = FeedForwardNetwork(_config(trial), seed=0)
    optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
    loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=0)
    return model, optimizer, loader


def _build_hoppable(trial):
    model, optimizer, _ = _build_trainable(trial)
    return model, optimizer


def _profile(trial):
    return _config(trial).profile()


def shard_backend():
    return ShardParallelBackend(builder=_build_trainable, num_devices=2)


def simulation_backend():
    return SimulationBackend(profile_fn=_profile, batches_per_epoch=2, batch_size=16)


def assert_ranked(result, method, objective, mode):
    """The contract every searcher × backend combination must satisfy."""
    assert result.method == method
    assert result.objective == objective
    assert result.mode == mode
    assert len(result) > 0
    values = [trial.metric(objective) for trial in result.ranked()]
    assert values == sorted(values, reverse=(mode == "max"))
    best = result.best()
    assert best.metric(objective) == values[0]
    for trial in result.trials:
        assert objective in trial.metrics
        assert trial.epochs_trained >= 1


SEARCHERS = [
    (lambda: GridSearcher(), "grid_search", 4),
    (lambda: RandomSearcher(num_trials=4, seed=0), "random_search", 4),
    (lambda: SuccessiveHalvingSearcher(num_trials=4, seed=0), "successive_halving", 7),
]

BACKENDS = [
    (shard_backend, "loss"),
    (simulation_backend, "makespan_seconds"),
]


class TestSearcherBackendCrossProduct:
    @pytest.mark.parametrize("make_backend,objective", BACKENDS,
                             ids=["shard-parallel", "simulation"])
    @pytest.mark.parametrize("make_searcher_fn,method,expected_records", SEARCHERS,
                             ids=["grid", "random", "sha"])
    def test_every_searcher_runs_on_every_backend(
        self, make_searcher_fn, method, expected_records, make_backend, objective
    ):
        experiment = Experiment(
            space=SPACE,
            searcher=make_searcher_fn(),
            backend=make_backend(),
            objective=objective,
            mode="min",
            budget=Budget(epochs_per_trial=2),
        )
        result = experiment.run()
        assert_ranked(result, method, objective, "min")
        # grid/random: one record per trial; SHA: one per trial per rung (4+2+1).
        assert len(result) == expected_records

    def test_same_experiment_replays_on_both_backends(self):
        """The acceptance scenario: simulate to pick a plan, then train for real."""
        experiment = Experiment(
            space=SPACE,
            searcher=GridSearcher(),
            objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        simulated = experiment.run(
            backend=simulation_backend(), objective="makespan_seconds"
        )
        trained = experiment.run(backend=shard_backend())
        assert_ranked(simulated, "grid_search", "makespan_seconds", "min")
        assert_ranked(trained, "grid_search", "loss", "min")
        # Both runs enumerate the same grid of candidates.
        assert (
            [t.trial_id for t in simulated.trials] == [t.trial_id for t in trained.trials]
        )

    def test_cerebro_backend_runs_grid(self):
        backend = CerebroBackend(
            DATASET, builder=_build_hoppable, num_workers=2, batch_size=16
        )
        result = Experiment(
            space=SPACE,
            searcher=GridSearcher(),
            backend=backend,
            budget=Budget(epochs_per_trial=2),
        ).run()
        assert_ranked(result, "grid_search", "loss", "min")
        assert len(result) == 4
        assert all(np.isfinite(t.metric("loss")) for t in result.trials)

    def test_sha_rejects_one_shot_backend(self):
        experiment = Experiment(
            space=SPACE,
            searcher=SuccessiveHalvingSearcher(num_trials=4),
            backend=FunctionBackend(lambda trial, epochs: {"loss": 1.0}),
        )
        with pytest.raises(SearchSpaceError):
            experiment.run()

    def test_real_training_records_wall_seconds(self):
        result = Experiment(
            space=SPACE, searcher=GridSearcher(), backend=shard_backend(),
        ).run()
        assert all(trial.wall_seconds > 0.0 for trial in result.trials)

    def test_backend_annotations_merge_into_hyperparameters(self):
        result = Experiment(
            space=SPACE, searcher=GridSearcher(), backend=shard_backend(),
        ).run()
        for trial in result.trials:
            assert trial.hyperparameters["num_shards"] == 2
            assert "width" in trial.hyperparameters
        sim = Experiment(
            space=SPACE, searcher=GridSearcher(), backend=simulation_backend(),
            objective="makespan_seconds",
        ).run()
        for trial in sim.trials:
            assert trial.hyperparameters["num_shards"] >= 1


class _RecordingCallback(Callback):
    def __init__(self):
        self.events = []

    def on_experiment_start(self, experiment):
        self.events.append("experiment_start")

    def on_trial_start(self, trial):
        self.events.append(f"trial_start:{trial.trial_id}")

    def on_epoch_end(self, trial, epoch, metrics):
        self.events.append(f"epoch_end:{trial.trial_id}:{epoch}")
        return None

    def on_trial_end(self, result):
        self.events.append(f"trial_end:{result.trial_id}")

    def on_experiment_end(self, result):
        self.events.append("experiment_end")


class _StopAfterOneEpoch(Callback):
    def __init__(self, trial_id):
        self.trial_id = trial_id

    def on_epoch_end(self, trial, epoch, metrics):
        return trial.trial_id == self.trial_id


class TestCallbacks:
    def test_events_fire_in_order(self):
        recorder = _RecordingCallback()
        space = SearchSpace({"width": [16, 32]})
        Experiment(
            space=space,
            searcher=GridSearcher(),
            backend=shard_backend(),
            budget=Budget(epochs_per_trial=2),
            callbacks=[recorder],
        ).run()
        assert recorder.events == [
            "experiment_start",
            "trial_start:grid-0",
            "trial_start:grid-1",
            "epoch_end:grid-0:1",
            "epoch_end:grid-1:1",
            "epoch_end:grid-0:2",
            "epoch_end:grid-1:2",
            "trial_end:grid-0",
            "trial_end:grid-1",
            "experiment_end",
        ]

    def test_callback_can_stop_a_trial_early(self):
        space = SearchSpace({"width": [16, 32]})
        result = Experiment(
            space=space,
            searcher=GridSearcher(),
            backend=shard_backend(),
            budget=Budget(epochs_per_trial=3),
            callbacks=[_StopAfterOneEpoch("grid-0")],
        ).run()
        by_id = {trial.trial_id: trial for trial in result.trials}
        assert by_id["grid-0"].epochs_trained == 1  # stopped early
        assert by_id["grid-1"].epochs_trained == 3  # rest of cohort continued
        assert len(result) == 2  # stopped trial still ranked

    def test_early_stopping_threshold(self):
        def train_fn(trial, epochs, state):
            epochs_done = (state or 0) + epochs
            return {"loss": 1.0 / epochs_done}, epochs_done

        result = Experiment(
            space=SearchSpace({"x": [1]}),
            searcher=GridSearcher(),
            backend=ResumableFunctionBackend(train_fn),
            budget=Budget(epochs_per_trial=10),
            callbacks=[EarlyStopping(monitor="loss", mode="min", threshold=0.35)],
        ).run()
        # loss hits 1/3 <= 0.35 at epoch 3, far short of the 10-epoch budget.
        assert result.trials[0].epochs_trained == 3

    def test_early_stopping_patience(self):
        def train_fn(trial, epochs, state):
            epochs_done = (state or 0) + epochs
            return {"loss": 1.0 if epochs_done < 2 else 0.5}, epochs_done

        result = Experiment(
            space=SearchSpace({"x": [1]}),
            searcher=GridSearcher(),
            backend=ResumableFunctionBackend(train_fn),
            budget=Budget(epochs_per_trial=10),
            callbacks=[EarlyStopping(monitor="loss", patience=2)],
        ).run()
        # Improves at epoch 2 then plateaus; patience 2 stops it at epoch 4.
        assert result.trials[0].epochs_trained == 4

    def test_stop_vote_retires_trial_on_one_shot_backend(self):
        # A one-shot backend cannot rewind training, but a stop vote must
        # still retire the trial (on_trial_end fires; searcher never resumes).
        recorder = _RecordingCallback()
        stopper = _StopAfterOneEpoch("grid-0")
        result = Experiment(
            space=SearchSpace({"width": [16, 32]}),
            searcher=GridSearcher(),
            backend=FunctionBackend(lambda trial, epochs: {"loss": 1.0}),
            budget=Budget(epochs_per_trial=2),
            callbacks=[stopper, recorder],
        ).run()
        assert len(result) == 2  # both trials still recorded
        assert "trial_end:grid-0" in recorder.events

    def test_no_callbacks_trains_resumable_backend_in_one_chunk(self):
        calls = []

        def train_fn(trial, epochs, state):
            calls.append(epochs)
            return {"loss": 1.0}, state

        Experiment(
            space=SearchSpace({"x": [1]}),
            searcher=GridSearcher(),
            backend=ResumableFunctionBackend(train_fn),
            budget=Budget(epochs_per_trial=5),
        ).run()
        # No epoch observers -> the whole budget arrives in a single call
        # (avoids per-call setup overhead on the engine backends).
        assert calls == [5]

    def test_sequential_backend_attributes_wall_time_per_trial(self):
        import time as _time

        def train_fn(trial, epochs):
            _time.sleep(0.01)
            return {"loss": 1.0}

        result = Experiment(
            space=SearchSpace({"x": [1, 2, 3]}),
            searcher=GridSearcher(),
            backend=FunctionBackend(train_fn),
        ).run()
        for trial in result.trials:
            assert 0.0 < trial.wall_seconds < 0.03  # own time, not cohort total

    def test_early_stopping_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(mode="maximize", threshold=1.0)
        with pytest.raises(ValueError):
            EarlyStopping()

    def test_trial_timer_collects_wall_time(self):
        timer = TrialTimer()
        Experiment(
            space=SearchSpace({"width": [16]}),
            searcher=GridSearcher(),
            backend=shard_backend(),
            callbacks=[timer],
        ).run()
        assert set(timer.wall_seconds) == {"grid-0"}
        assert timer.wall_seconds["grid-0"] > 0.0


class TestExperimentDeclaration:
    def test_top_level_lazy_exports_match_api(self):
        import repro
        import repro.api as api

        assert set(repro._API_EXPORTS) == set(api.__all__)
        for name in repro._API_EXPORTS:
            assert getattr(repro, name) is getattr(api, name)

    def test_searched_hyperparameter_wins_over_annotation(self):
        # The backend annotates the shard count it used, but a searched
        # dimension of the same name must not be overwritten by it.
        result = Experiment(
            space=SearchSpace({"num_shards": [1, 2]}),
            searcher=GridSearcher(),
            backend=shard_backend(),
        ).run()
        assert sorted(t.hyperparameters["num_shards"] for t in result.trials) == [1, 2]

    def test_failed_search_still_tears_down_trials(self):
        torn_down = []

        class _Exploding(FunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        def boom(trial, epochs):
            if trial.trial_id.endswith("1"):
                raise RuntimeError("engine crashed")
            return {"loss": 1.0}

        with pytest.raises(RuntimeError):
            Experiment(
                space=SearchSpace({"x": [1, 2]}),
                searcher=GridSearcher(),
                backend=_Exploding(boom),
            ).run()
        # Trial 0 was prepared before the crash; finish() must release it.
        assert "grid-0" in torn_down

    def test_space_optional_only_for_fixed_trials(self):
        trials = [TrialConfig(trial_id="only", hyperparameters={"width": 16, "lr": 1e-2})]
        result = Experiment(
            searcher=FixedSearcher(trials), backend=shard_backend(),
        ).run()
        assert len(result) == 1
        with pytest.raises(ConfigurationError):
            Experiment(
                searcher=GridSearcher(),
                backend=FunctionBackend(lambda t, e: {"loss": 0.0}),
            ).run()

    def test_string_searcher_resolution(self):
        result = Experiment(
            space=SPACE,
            searcher="grid",
            backend=FunctionBackend(lambda trial, epochs: {"loss": float(trial.get("width"))}),
        ).run()
        assert result.method == "grid_search"
        assert result.best().hyperparameters["width"] == 16

    def test_unknown_searcher_rejected(self):
        with pytest.raises(SearchSpaceError):
            make_searcher("bayesian")

    def test_missing_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            Experiment(space=SPACE, searcher="grid").run()

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            Budget(epochs_per_trial=0)
        with pytest.raises(ConfigurationError):
            Budget(max_trials=0)

    def test_budget_max_trials_caps_grid(self):
        result = Experiment(
            space=SPACE,
            searcher="grid",
            backend=FunctionBackend(lambda trial, epochs: {"loss": 0.0}),
            budget=Budget(max_trials=2),
        ).run()
        assert len(result) == 2

    def test_fixed_searcher_runs_given_trials(self):
        trials = [
            TrialConfig(trial_id="a", hyperparameters={"width": 16, "lr": 1e-2}),
            TrialConfig(trial_id="b", hyperparameters={"width": 32, "lr": 1e-3}),
        ]
        result = Experiment(
            space=SPACE,
            searcher=FixedSearcher(trials, method="custom"),
            backend=shard_backend(),
            budget=Budget(epochs_per_trial=2),
        ).run()
        assert result.method == "custom"
        assert sorted(t.trial_id for t in result.trials) == ["a", "b"]

    def test_fixed_searcher_requires_trials(self):
        with pytest.raises(SearchSpaceError):
            FixedSearcher([])

    def test_searcher_validation(self):
        with pytest.raises(ValueError):
            RandomSearcher(num_trials=0)
        with pytest.raises(SearchSpaceError):
            SuccessiveHalvingSearcher(num_trials=1)
        with pytest.raises(SearchSpaceError):
            SuccessiveHalvingSearcher(reduction_factor=1)


class TestSimulationBackendMetrics:
    def test_cumulative_makespan_across_rungs(self):
        backend = simulation_backend()
        experiment = Experiment(
            space=SPACE,
            searcher=SuccessiveHalvingSearcher(num_trials=4, seed=0),
            backend=backend,
            objective="makespan_seconds",
        )
        result = experiment.run()
        # Survivors accumulate simulated cost over rungs, so the deepest
        # trial has trained more epochs and accrued more simulated seconds.
        deepest = max(result.trials, key=lambda t: t.epochs_trained)
        shallow = min(result.trials, key=lambda t: t.epochs_trained)
        assert deepest.epochs_trained > shallow.epochs_trained
        assert deepest.metric("makespan_seconds") > 0.0

    def test_cohort_is_scheduled_together(self):
        backend = simulation_backend()
        h1 = backend.prepare(TrialConfig("t1", {"width": 16}))
        h2 = backend.prepare(TrialConfig("t2", {"width": 32}))
        metrics = backend.train_many([h1, h2], 1)
        # Shared-cluster utilization is identical because both trials were
        # simulated in the same schedule.
        assert metrics["t1"]["cluster_utilization"] == metrics["t2"]["cluster_utilization"]


#: the exact public surface; CI runs ``TestPublicSurface`` as its own step
PUBLIC_SURFACE = {
    "repro.api": [
        "Budget", "Callback", "CallbackList", "CerebroBackend", "ConcurrentBackend",
        "EarlyStopping", "ExecutionBackend", "Experiment",
        "FixedSearcher", "FunctionBackend", "GridSearcher", "LoggingCallback",
        "ProcessWorkerPool", "RandomSearcher", "ResumableFunctionBackend", "RetryPolicy",
        "Searcher", "SerialWorkerPool", "ShardParallelBackend", "SimulationBackend",
        "SuccessiveHalvingSearcher",
        "ThreadWorkerPool", "TrialHandle", "TrialRunner", "TrialTimer", "WorkerPool",
        "make_pool", "make_searcher", "serve", "serve_fleet",
    ],
    "repro.memory": [
        "DeviceArena", "ResidencyState", "ShardResidency", "SpillManager",
        "SpillStats",
    ],
    "repro.api.runtime": [
        "ConcurrentBackend", "ProcessWorkerPool", "RetryPolicy", "SerialWorkerPool",
        "ThreadWorkerPool", "WorkerPool", "make_pool",
    ],
    "repro.selection": [
        "Choice", "Uniform", "LogUniform", "SearchSpace", "TrialConfig", "TrialResult",
        "FailedTrial", "SelectionResult",
    ],
    "repro.serving": [
        "DynamicBatcher", "FleetRouter", "InferenceRequest", "ModelEntry",
        "ModelRegistry", "ModelServer", "ModelVersion", "PendingResponse", "Replica",
    ],
    "repro.telemetry": [
        "Histogram", "MetricsRegistry", "NULL_TELEMETRY", "NullTelemetry", "Telemetry",
    ],
}


class TestPublicSurface:
    @pytest.mark.parametrize("module", sorted(PUBLIC_SURFACE))
    def test_exports_are_pinned(self, module):
        import importlib

        exported = importlib.import_module(module).__all__
        expected = PUBLIC_SURFACE[module]
        added = sorted(set(exported) - set(expected))
        dropped = sorted(set(expected) - set(exported))
        assert not added and not dropped, (
            f"{module}.__all__ changed: added {added}, dropped {dropped}"
        )
        assert sorted(exported) == sorted(expected)  # and no name twice
