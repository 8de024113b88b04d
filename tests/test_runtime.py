"""Tests for the concurrent runtime: pools, retries, faults, determinism.

Covers the ``repro.api.runtime`` subsystem (WorkerPool / RetryPolicy /
ConcurrentBackend, the one trial dispatcher), the FailedTrial
fault-tolerance path through the TrialRunner, teardown discipline on failure
paths, and callback/early-stop semantics under concurrency.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.api import (
    Budget,
    Callback,
    CallbackList,
    ConcurrentBackend,
    Experiment,
    FunctionBackend,
    GridSearcher,
    ProcessWorkerPool,
    ResumableFunctionBackend,
    RetryPolicy,
    SerialWorkerPool,
    ShardParallelBackend,
    SuccessiveHalvingSearcher,
    ThreadWorkerPool,
    TrialRunner,
    make_pool,
)
from repro.data import DataLoader, make_classification
from repro.exceptions import ConfigurationError
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.runtime.placement import spare_cpu, split_cpus
from repro.selection import FailedTrial, SearchSpace, SelectionResult, TrialConfig

DATASET = make_classification(
    num_samples=64, num_features=8, num_classes=3, class_separation=2.0,
    rng=np.random.default_rng(0),
)


def _build_trainable(trial):
    width = int(trial.get("width", 16))
    config = FeedForwardConfig(input_dim=8, hidden_dims=(width,), num_classes=3)
    model = FeedForwardNetwork(config, seed=0)
    optimizer = Adam(model.parameters(), lr=float(trial.get("lr", 1e-2)))
    loader = DataLoader(DATASET, batch_size=16, shuffle=True, seed=0)
    return model, optimizer, loader


#: trials built by ``_build_trainable_counted`` in *this* process
_PARENT_BUILDS = []


def _build_trainable_counted(trial):
    _PARENT_BUILDS.append(trial.trial_id)
    return _build_trainable(trial)


def _build_trainable_unless_zero_width(trial):
    if int(trial.get("width", 16)) == 0:
        raise ValueError("zero-width trial")
    return _build_trainable(trial)


# --------------------------------------------------------------------- #
# Worker pools
# --------------------------------------------------------------------- #
class TestWorkerPools:
    def test_make_pool_one_worker_is_serial(self):
        assert make_pool(1).kind == "serial"
        assert make_pool(1, kind="process").kind == "serial"

    def test_make_pool_validation(self):
        with pytest.raises(ConfigurationError):
            make_pool(0)
        with pytest.raises(ConfigurationError):
            make_pool(2, kind="fiber")
        with pytest.raises(ConfigurationError):
            ThreadWorkerPool(-1)

    def test_serial_pool_runs_inline_and_captures_exceptions(self):
        pool = SerialWorkerPool()
        assert pool.submit(lambda: 42).result() == 42
        future = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_thread_pool_actually_overlaps(self):
        with make_pool(4) as pool:
            started = time.monotonic()
            futures = [pool.submit(time.sleep, 0.05) for _ in range(4)]
            for future in futures:
                future.result()
            elapsed = time.monotonic() - started
        assert elapsed < 4 * 0.05  # four sleeps overlapped, not queued

    def test_pool_context_manager_shuts_down(self):
        with make_pool(2) as pool:
            assert pool.submit(abs, -1).result() == 1
        with pytest.raises(RuntimeError):
            pool.submit(abs, -1)

    def test_explicit_serial_kind_stays_serial_at_any_size(self):
        assert make_pool(4, kind="serial").kind == "serial"

    def test_process_pool_runs_tasks_in_child_processes(self):
        import os

        with make_pool(2, kind="process") as pool:
            futures = [pool.submit(os.getpid) for _ in range(4)]
            pids = {future.result(timeout=60) for future in futures}
        assert os.getpid() not in pids  # truly out-of-process
        assert 1 <= len(pids) <= 2  # persistent children, one per slot

    def test_process_pool_shutdown_reaps_children(self):
        import multiprocessing

        pool = make_pool(2, kind="process")
        assert pool.submit(abs, -1).result(timeout=60) == 1
        pool.shutdown()
        alive = [
            child for child in multiprocessing.active_children()
            if child.name.startswith("repro-pool-worker")
        ]
        assert alive == []


# --------------------------------------------------------------------- #
# Retry policy + per-trial dispatch (ConcurrentBackend.train_many)
# --------------------------------------------------------------------- #
def _dispatch(train_fn, trial_ids, workers=2, retry=None):
    """Drive one ``train_many`` call as the runner does; return (metrics, handles)."""
    with ConcurrentBackend(FunctionBackend(train_fn), workers=workers, retry=retry) as backend:
        handles = [
            backend.prepare(TrialConfig(trial_id=trial_id, hyperparameters={}))
            for trial_id in trial_ids
        ]
        return backend.train_many(handles, 1), handles


def _split_in_a_pool_child():
    """(mask before, mask inside a split, helper pins) as a pool child sees them."""
    pins = []
    before = os.sched_getaffinity(0)
    with split_cpus(pins.append):
        inside = os.sched_getaffinity(0)
    return before, inside, pins


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
class TestPlacement:
    """Expectations come from this process's own mask (1 CPU or many)."""

    @pytest.fixture(autouse=True)
    def _single_threaded_blas(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def test_a_multi_threaded_blas_never_splits(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        allowed, pins = os.sched_getaffinity(0), []
        with split_cpus(pins.append):
            assert os.sched_getaffinity(0) == allowed
        assert pins == []

    def test_spare_cpu_is_the_last_allowed_one_when_there_are_two(self):
        allowed = os.sched_getaffinity(0)
        assert spare_cpu() == (max(allowed) if len(allowed) >= 2 else None)

    def test_a_split_restores_both_masks_when_the_block_raises(self):
        allowed = os.sched_getaffinity(0)
        cpu, pins = spare_cpu(), []
        with pytest.raises(RuntimeError):
            with split_cpus(pins.append):
                assert os.sched_getaffinity(0) == allowed - {cpu}
                raise RuntimeError("boom")
        assert os.sched_getaffinity(0) == allowed
        assert pins == ([{cpu}, allowed] if cpu is not None else [])

    def test_a_second_driver_dissolves_the_split(self):
        allowed = os.sched_getaffinity(0)
        cpu, pins = spare_cpu(), []
        with split_cpus(pins.append):
            with split_cpus(pins.append):  # a second driver: nobody is split
                assert os.sched_getaffinity(0) == allowed
            assert os.sched_getaffinity(0) == allowed, "dissolved for good"
        assert pins == ([{cpu}, allowed] if cpu is not None else [])

    def test_a_process_pool_child_never_splits(self):
        with ProcessWorkerPool(2) as pool:
            before, inside, pins = pool.submit(_split_in_a_pool_child).result(timeout=60)
        assert inside == before and pins == []


class TestAsyncTrialRunner:
    """Asynchronous per-trial dispatch: retries, faults, deadlines, order."""

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_seconds=0)

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, backoff_seconds=0.1, backoff_multiplier=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_flaky_task_retries_then_succeeds(self):
        attempts = {}

        def flaky(trial, epochs):
            attempts[trial.trial_id] = attempts.get(trial.trial_id, 0) + 1
            if attempts[trial.trial_id] < 2:
                raise RuntimeError("transient")
            return {"loss": 0.0}

        metrics, handles = _dispatch(
            flaky, ["t0", "t1", "t2"], retry=RetryPolicy(max_retries=2, backoff_seconds=0.0)
        )
        assert all(m == {"loss": 0.0} for m in metrics.values())
        assert all(handle.failure is None for handle in handles)
        assert all(count == 2 for count in attempts.values())

    def test_exhausted_retries_become_fault_not_exception(self):
        attempts = []

        def permanent(trial, epochs):
            attempts.append(trial.trial_id)
            raise ValueError("permanent")

        metrics, (handle,) = _dispatch(
            permanent, ["t0"], retry=RetryPolicy(max_retries=1, backoff_seconds=0.0)
        )
        assert metrics == {"t0": {}}
        assert handle.failure == {"error": "ValueError: permanent", "timed_out": False}
        assert attempts == ["t0", "t0"]

    def test_straggler_deadline_faults_without_blocking_cohort(self):
        def sleepy(trial, epochs):
            if trial.trial_id == "slow":
                time.sleep(0.5)
            return {"loss": 0.0}

        started = time.monotonic()
        metrics, handles = _dispatch(
            sleepy, ["a", "slow", "b"], workers=4, retry=RetryPolicy(timeout_seconds=0.1)
        )
        assert time.monotonic() - started < 0.4  # did not wait out the straggler
        assert metrics == {"a": {"loss": 0.0}, "slow": {}, "b": {"loss": 0.0}}
        failures = {handle.trial_id: handle.failure for handle in handles}
        assert failures["slow"]["timed_out"] and failures["a"] is failures["b"] is None

    def test_outcomes_keyed_in_handle_order(self):
        def first_finishes_last(trial, epochs):
            time.sleep(0.05 if trial.trial_id == "first" else 0.0)
            return {"loss": 0.0}

        metrics, _ = _dispatch(first_finishes_last, ["first", "second"])
        # "second" completes first, but the map is in handle order.
        assert list(metrics) == ["first", "second"]


# --------------------------------------------------------------------- #
# ConcurrentBackend through the Experiment API
# --------------------------------------------------------------------- #
class TestConcurrentBackend:
    def test_wraps_resumability_of_inner_backend(self):
        one_shot = ConcurrentBackend(FunctionBackend(lambda t, e: {"loss": 0.0}), workers=2)
        resumable = ConcurrentBackend(
            ResumableFunctionBackend(lambda t, e, s: ({"loss": 0.0}, s)), workers=2
        )
        try:
            assert not one_shot.resumable
            assert resumable.resumable
            assert one_shot.name == "concurrent(function)"
        finally:
            one_shot.close()
            resumable.close()

    def test_identical_ranking_serial_vs_pooled_real_training(self):
        experiment = Experiment(
            space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        serial = experiment.run(
            backend=ShardParallelBackend(builder=_build_trainable, num_devices=2)
        )
        pooled = experiment.run(
            backend=ShardParallelBackend(builder=_build_trainable, num_devices=2),
            workers=4,
        )
        # Bit-identical losses: each model's own update sequence is unchanged.
        assert [t.metrics for t in serial.trials] == [t.metrics for t in pooled.trials]
        assert [t.trial_id for t in serial.ranked()] == [
            t.trial_id for t in pooled.ranked()
        ]

    def test_failed_trial_recorded_not_raised(self):
        def boom(trial, epochs):
            if trial.get("x") == 2:
                raise RuntimeError("engine crashed")
            return {"loss": float(trial.get("x"))}

        result = Experiment(
            space=SearchSpace({"x": [1, 2, 3]}), searcher="grid", objective="loss",
        ).run(backend=FunctionBackend(boom), workers=2)
        assert len(result) == 3  # failure kept in the trial list
        failures = result.failures
        assert len(failures) == 1 and isinstance(failures[0], FailedTrial)
        assert failures[0].trial_id == "grid-1"
        assert "engine crashed" in failures[0].error
        # Ranking and best() are over the survivors only.
        assert [t.trial_id for t in result.ranked()] == ["grid-0", "grid-2"]
        assert result.best().trial_id == "grid-0"

    def test_retries_recover_transient_failures(self):
        attempts = {}

        def flaky(trial, epochs):
            attempts[trial.trial_id] = attempts.get(trial.trial_id, 0) + 1
            if attempts[trial.trial_id] == 1:
                raise RuntimeError("transient")
            return {"loss": 0.0}

        result = Experiment(
            space=SearchSpace({"x": [1, 2]}), searcher="grid", objective="loss",
        ).run(
            backend=FunctionBackend(flaky),
            workers=2,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures
        assert all(count == 2 for count in attempts.values())

    def test_failed_trial_not_resumed_by_multirung_searcher(self):
        def boom(trial, epochs, state):
            if trial.trial_id == "sha-0":
                raise RuntimeError("dead on arrival")
            epochs_done = (state or 0) + epochs
            return {"loss": 1.0 / epochs_done}, epochs_done

        result = Experiment(
            space=SearchSpace({"x": [1, 2, 3, 4]}),
            searcher=SuccessiveHalvingSearcher(num_trials=4, seed=0),
            objective="loss",
        ).run(backend=ResumableFunctionBackend(boom), workers=2)
        failed = [t.trial_id for t in result.failures]
        assert failed.count("sha-0") == 1  # failed once, never retried in later rungs
        assert result.best().trial_id != "sha-0"

    def test_deferred_prepare_runs_in_workers_and_overlaps(self):
        prepare_threads = []

        def slow_build(trial):
            prepare_threads.append(threading.get_ident())
            time.sleep(0.05)
            return _build_trainable(trial)

        backend = ShardParallelBackend(builder=slow_build, num_devices=2)
        started = time.monotonic()
        result = Experiment(
            space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
            searcher="grid",
            objective="loss",
        ).run(backend=backend, workers=4)
        elapsed = time.monotonic() - started
        assert len(result) == 4
        # Four 0.05s prepares off the caller's thread, overlapped.
        assert threading.get_ident() not in prepare_threads
        assert elapsed < 4 * 0.05 + 1.0

    def test_inner_state_torn_down_after_run(self):
        torn_down = []

        class _Tracking(FunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        Experiment(
            space=SearchSpace({"x": [1, 2]}), searcher="grid", objective="loss",
        ).run(backend=_Tracking(lambda t, e: {"loss": 0.0}), workers=2)
        assert sorted(torn_down) == ["grid-0", "grid-1"]

    def test_failed_trial_inner_state_torn_down(self):
        torn_down = []

        class _Tracking(FunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        def boom(trial, epochs):
            raise RuntimeError("always fails")

        result = Experiment(
            space=SearchSpace({"x": [1]}), searcher="grid", objective="loss",
        ).run(backend=_Tracking(boom), workers=2)
        assert [t.trial_id for t in result.failures] == ["grid-0"]
        assert torn_down == ["grid-0"]

    def test_caller_supplied_pool_is_not_shut_down(self):
        pool = ThreadWorkerPool(2)
        try:
            backend = ConcurrentBackend(
                FunctionBackend(lambda t, e: {"loss": 0.0}), pool=pool
            )
            Experiment(
                space=SearchSpace({"x": [1]}), searcher="grid", objective="loss",
            ).run(backend=backend)
            backend.close()  # no-op: the pool belongs to the caller
            assert pool.submit(abs, -5).result() == 5
        finally:
            pool.shutdown()

    def test_retry_honoured_at_one_worker(self):
        # Regression: retry used to be silently dropped unless workers > 1,
        # so the same experiment aborted at workers=1 but survived at 2+.
        attempts = {}

        def flaky(trial, epochs):
            attempts[trial.trial_id] = attempts.get(trial.trial_id, 0) + 1
            if attempts[trial.trial_id] == 1:
                raise RuntimeError("transient")
            return {"loss": 0.0}

        experiment = Experiment(
            space=SearchSpace({"x": [1, 2]}), searcher="grid", objective="loss",
        )
        result = experiment.run(
            backend=FunctionBackend(flaky),
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        )
        assert not result.failures and all(c == 2 for c in attempts.values())
        # retry alone implies the serial fault-tolerant runtime.
        def boom(trial, epochs):
            raise RuntimeError("permanent")

        survived = experiment.run(
            backend=FunctionBackend(boom), retry=RetryPolicy(max_retries=0)
        )
        assert len(survived.failures) == 2  # recorded, not raised

    def test_prewrapped_backend_rejects_per_call_runtime_knobs(self):
        backend = ConcurrentBackend(FunctionBackend(lambda t, e: {"loss": 0.0}), workers=2)
        experiment = Experiment(
            space=SearchSpace({"x": [1]}), searcher="grid", objective="loss",
        )
        try:
            with pytest.raises(ConfigurationError):
                experiment.run(backend=backend, workers=4)
            with pytest.raises(ConfigurationError):
                experiment.run(backend=backend, retry=RetryPolicy())
            assert len(experiment.run(backend=backend)) == 1  # bare run is fine
        finally:
            backend.close()

    def test_cohort_measuring_backend_refuses_concurrency(self):
        # SimulationBackend's metrics ARE the cohort schedule; wrapping it
        # would silently change what it reports (and nothing would speed up).
        from repro.api import SimulationBackend
        from repro.models import FeedForwardConfig

        sim = SimulationBackend(
            profile_fn=lambda t: FeedForwardConfig(
                input_dim=8, hidden_dims=(16,), num_classes=3
            ).profile(),
            batches_per_epoch=1,
        )
        experiment = Experiment(
            space=SearchSpace({"x": [1, 2]}), searcher="grid",
            objective="makespan_seconds",
        )
        with pytest.raises(ConfigurationError):
            experiment.run(backend=sim, workers=2)
        with pytest.raises(ConfigurationError):
            ConcurrentBackend(sim, workers=2)
        assert len(experiment.run(backend=sim)) == 2  # unwrapped still fine

    def test_process_pool_gated_by_picklability_probe_not_wholesale(self):
        # Regression: process pools used to be rejected for *every* inner
        # backend.  The real constraint is narrower — the backend must
        # round-trip pickle to reach worker children — so the gate is now a
        # probe: lambda-carrying backends still fail (with a message naming
        # the fix), module-level-builder backends pass.
        from repro.api import ProcessWorkerPool

        pool = ProcessWorkerPool(2)
        try:
            with pytest.raises(ConfigurationError, match="process boundary"):
                ConcurrentBackend(FunctionBackend(lambda t, e: {"loss": 0.0}), pool=pool)
            picklable = ConcurrentBackend(
                ShardParallelBackend(builder=_build_trainable, num_devices=2),
                pool=pool,
            )
            picklable.close()  # the caller-supplied pool stays up
            assert pool.submit(abs, -3).result(timeout=60) == 3
        finally:
            pool.shutdown()

    def test_process_pool_trials_bit_identical_and_published(self, tmp_path):
        from repro.serving import ModelRegistry

        experiment = Experiment(
            space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=2),
        )
        serial_registry = ModelRegistry(tmp_path / "serial")
        serial = experiment.run(
            backend=ShardParallelBackend(
                builder=_build_trainable_counted, num_devices=2, registry=serial_registry
            )
        )
        registry = ModelRegistry(tmp_path / "registry")
        _PARENT_BUILDS.clear()
        pooled = experiment.run(
            backend=ShardParallelBackend(
                builder=_build_trainable_counted, num_devices=2, registry=registry
            ),
            workers=2,
            pool="process",
        )
        # The children built every model; the parent published each one
        # from its snapshot archive without building it again.
        assert _PARENT_BUILDS == []
        # Bit-identical: the trial round-tripped a child process through a
        # checkpoint snapshot, and no bit of its update sequence changed.
        assert [t.metrics for t in serial.trials] == [t.metrics for t in pooled.trials]
        assert [t.trial_id for t in serial.ranked()] == [
            t.trial_id for t in pooled.ranked()
        ]
        # Publish-at-retirement survived the process boundary: the parent
        # publishes each trial exactly once from its returned snapshot.
        assert sorted(registry.names()) == sorted(t.trial_id for t in pooled.trials)
        for trial in pooled.trials:
            assert registry.latest_version(trial.trial_id) == 1
            # What the pool published is what the serial run published.
            assert registry.metadata(trial.trial_id) == serial_registry.metadata(trial.trial_id)
            with np.load(registry.archive_path(trial.trial_id)) as got, np.load(
                serial_registry.archive_path(trial.trial_id)
            ) as want:
                assert not [k for k in got.files if k.startswith(("opt::", "sched::"))]
                model_keys = [k for k in want.files if k.startswith(("param::", "rng::"))]
                assert model_keys and sorted(model_keys) == sorted(
                    k for k in got.files if k.startswith(("param::", "rng::"))
                )
                for key in model_keys:
                    assert np.array_equal(got[key], want[key]), key

    def test_trial_has_one_shape_on_thread_and_process_pools(self):
        # One trial body and one report shape in every pool: whatever a trial
        # leaves behind — spans, counters, wall time, annotations, metrics,
        # the failure record — is the same whether it ran on a pool thread
        # or in a pool child.
        from repro.telemetry import Telemetry

        from _schema import validate_registry_snapshot

        def observe(pool):
            tel = Telemetry()
            result = Experiment(
                space=SearchSpace({"width": [16, 32, 0]}),
                searcher="grid",
                objective="loss",
                budget=Budget(epochs_per_trial=1),
            ).run(
                backend=ShardParallelBackend(
                    builder=_build_trainable_unless_zero_width, num_devices=2
                ),
                workers=2,
                pool=pool,
                telemetry=tel,
            )
            events = tel.events()
            spans = {event["id"]: event for event in events}
            trial_spans = [e for e in events if e["name"] == "trial"]
            epoch_spans = [e for e in events if e["name"] == "epoch"]
            assert len(epoch_spans) == 2
            # Every epoch nests under the trial span of its own trial.
            assert all(spans[e["parent"]]["name"] == "trial" for e in epoch_spans)
            snapshot = validate_registry_snapshot(tel.metrics_snapshot())
            assert snapshot["collectors"]["runtime.pool"]["workers"] == 2
            assert snapshot["collectors"]["runtime.pool"]["restarts"] == 0
            finished = [t for t in result.trials if not isinstance(t, FailedTrial)]
            assert all(t.wall_seconds > 0 for t in finished)
            return {
                # (A trial that raised in a child ships its error, not its
                # buffered spans — events ride the report — so only finished
                # trials' spans are comparable.)
                "trial spans": sorted(
                    (e["args"]["trial_id"], e["parent"]) for e in trial_spans
                    if e["args"]["trial_id"] in {t.trial_id for t in finished}
                ),
                "completed": snapshot["counters"].get("runtime.trials.completed"),
                "failed": snapshot["counters"].get("runtime.trials.failed"),
                "annotated": [t.hyperparameters for t in result.trials],
                "metrics": [t.metrics for t in result.trials],
                "epochs": [t.epochs_trained for t in result.trials],
                "errors": [t.error for t in result.failures],
            }

        on_threads = observe("thread")
        assert on_threads == observe("process")
        assert on_threads["completed"] == 2 and on_threads["failed"] == 1
        assert len(on_threads["trial spans"]) == 2
        assert all("num_shards" in h for h in on_threads["annotated"][:2])

    def test_resumable_searcher_across_process_cohorts(self):
        # Successive halving re-trains survivors in later rungs: each rung's
        # child must resume from the previous rung's snapshot, not restart.
        def run(**runtime):
            return Experiment(
                space=SearchSpace({"width": [16, 32], "lr": [1e-2, 1e-3]}),
                searcher=SuccessiveHalvingSearcher(num_trials=4, seed=0),
                objective="loss",
                budget=Budget(epochs_per_trial=2),
            ).run(
                backend=ShardParallelBackend(builder=_build_trainable, num_devices=2),
                **runtime,
            )

        serial = run()
        pooled = run(workers=2, pool="process")
        assert [t.metrics for t in serial.trials] == [t.metrics for t in pooled.trials]
        assert [t.epochs_trained for t in serial.trials] == [
            t.epochs_trained for t in pooled.trials
        ]

    def test_teardown_does_not_deadlock_on_saturated_pool(self):
        # Regression: teardown used to be dispatched through the pool; with
        # every slot held by abandoned stragglers, retiring the finished
        # trial deadlocked the experiment.
        def slowpoke(trial, epochs):
            if trial.get("x") > 0:
                time.sleep(0.6)
            return {"loss": float(trial.get("x"))}

        started = time.monotonic()
        result = Experiment(
            space=SearchSpace({"x": [0, 1, 2]}), searcher="grid", objective="loss",
        ).run(
            backend=FunctionBackend(slowpoke),
            workers=2,
            retry=RetryPolicy(timeout_seconds=0.15),
        )
        assert time.monotonic() - started < 0.5  # returned despite stragglers
        assert len(result.succeeded()) == 1
        assert {f.trial_id for f in result.failures} == {"grid-1", "grid-2"}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_straggler_deadline_holds_on_every_pool(self, workers):
        # Regression: the inline serial pool (workers=1) ran the straggler to
        # completion inside submit and then accepted its late outcome.
        def slowpoke(trial, epochs):
            if trial.get("x") == 2:
                time.sleep(0.5)
            return {"loss": float(trial.get("x"))}

        result = Experiment(
            space=SearchSpace({"x": [0, 1, 2, 3]}), searcher="grid", objective="loss",
        ).run(
            backend=FunctionBackend(slowpoke),
            workers=workers,
            retry=RetryPolicy(timeout_seconds=0.2),
        )
        assert [f.trial_id for f in result.failures] == ["grid-2"]
        assert result.failures[0].timed_out
        assert result.failures[0].error == "straggler: no result within 0.200s cohort deadline"
        assert [t.trial_id for t in result.ranked()] == ["grid-0", "grid-1", "grid-3"]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_trial_raising_timeout_error_is_not_a_straggler(self, workers):
        def times_out_itself(trial, epochs):
            if trial.get("x") == 1:
                raise TimeoutError("engine gave up")
            return {"loss": float(trial.get("x"))}

        result = Experiment(
            space=SearchSpace({"x": [0, 1]}), searcher="grid", objective="loss",
        ).run(
            backend=FunctionBackend(times_out_itself),
            workers=workers,
            retry=RetryPolicy(timeout_seconds=30.0),
        )
        (failure,) = result.failures
        assert failure.error == "TimeoutError: engine gave up"
        assert not failure.timed_out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inner_backend_gets_the_runners_own_handle(self, workers):
        # One handle per trial in-process: the inner backend trains and tears
        # down the very TrialHandle the runner prepared — nothing nested.
        seen = {"train": [], "teardown": []}

        class _Recording(ResumableFunctionBackend):
            def train(self, handle, epochs):
                seen["train"].append(handle)
                return super().train(handle, epochs)

            def teardown(self, handle):
                seen["teardown"].append(handle)
                super().teardown(handle)

        def train_fn(trial, epochs, state):
            return {"loss": 1.0}, (state or 0) + epochs

        with ConcurrentBackend(_Recording(train_fn), workers=workers) as backend:
            handle = backend.prepare(TrialConfig(trial_id="t0", hyperparameters={}))
            backend.train_many([handle], 1)
            backend.train_many([handle], 1)
            assert handle.state == 2  # the inner backend's state, on this handle
            backend.teardown(handle)
        assert len(seen["train"]) == 2
        assert all(seen_handle is handle for seen_handle in seen["train"])
        assert len(seen["teardown"]) == 1 and seen["teardown"][0] is handle

    def test_non_positive_workers_rejected(self):
        experiment = Experiment(
            space=SearchSpace({"x": [1]}), searcher="grid", objective="loss",
        )
        backend = FunctionBackend(lambda t, e: {"loss": 0.0})
        with pytest.raises(ConfigurationError):
            experiment.run(backend=backend, workers=0)
        with pytest.raises(ConfigurationError):
            experiment.run(backend=backend, workers=-2)

    def test_run_model_selection_with_workers(self):
        from repro.hydra import run_model_selection

        builders = {
            f"mlp-{width}": (
                lambda width=width: _build_trainable(
                    TrialConfig(trial_id=f"mlp-{width}", hyperparameters={"width": width})
                )
            )
            for width in (16, 32)
        }
        serial = run_model_selection(dict(builders), num_devices=2)
        pooled = run_model_selection(dict(builders), num_devices=2, workers=2)
        assert [t.metrics for t in serial.trials] == [t.metrics for t in pooled.trials]
        assert serial.best().trial_id == pooled.best().trial_id


# --------------------------------------------------------------------- #
# Teardown discipline on failure paths (regression for the handle leak)
# --------------------------------------------------------------------- #
class TestTeardownOnFailure:
    def _runner(self, backend):
        result = SelectionResult("unit", objective="loss", mode="min")
        return TrialRunner(
            backend, SearchSpace({"x": [1]}), Budget(epochs_per_trial=5),
            result, CallbackList([]),
        )

    def test_resumable_backend_crash_mid_epoch_tears_down_handles(self):
        # Regression: a ResumableFunctionBackend trial that raises mid-epoch
        # used to leak its handle (teardown only ran via Experiment.finish).
        torn_down = []

        class _Tracking(ResumableFunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        def crashes_second_epoch(trial, epochs, state):
            epochs_done = (state or 0) + epochs
            if epochs_done >= 2:
                raise RuntimeError("mid-epoch crash")
            return {"loss": 1.0}, epochs_done

        runner = self._runner(_Tracking(crashes_second_epoch))
        trials = [TrialConfig(trial_id="t0", hyperparameters={"x": 1})]
        # Callbacks present -> epoch stepping -> the crash happens mid-cohort.
        runner.callbacks.callbacks.append(Callback())
        with pytest.raises(RuntimeError):
            runner.run_trials(trials, 5)
        assert torn_down == ["t0"]  # torn down on the failure path itself

    def test_one_shot_backend_crash_tears_down_whole_cohort(self):
        torn_down = []

        class _Tracking(FunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        def boom(trial, epochs):
            raise RuntimeError("crash")

        runner = self._runner(_Tracking(boom))
        trials = [
            TrialConfig(trial_id=f"t{i}", hyperparameters={"x": 1}) for i in range(3)
        ]
        with pytest.raises(RuntimeError):
            runner.run_trials(trials, 1)
        assert sorted(torn_down) == ["t0", "t1", "t2"]

    def test_runner_context_manager_retires_leftovers(self):
        torn_down = []

        class _Tracking(FunctionBackend):
            def teardown(self, handle):
                torn_down.append(handle.trial_id)
                super().teardown(handle)

        runner = self._runner(_Tracking(lambda t, e: {"loss": 1.0}))
        with runner:
            runner.run_trials(
                [TrialConfig(trial_id="t0", hyperparameters={"x": 1})], 1
            )
            # Searcher "forgot" to retire; __exit__ must do it.
            assert torn_down == []
        assert torn_down == ["t0"]


# --------------------------------------------------------------------- #
# Callback ordering and early stopping under concurrency
# --------------------------------------------------------------------- #
class _Recorder(Callback):
    def __init__(self):
        self.events = []
        self.threads = set()

    def on_trial_start(self, trial):
        self.threads.add(threading.get_ident())
        self.events.append(f"trial_start:{trial.trial_id}")

    def on_epoch_end(self, trial, epoch, metrics):
        self.threads.add(threading.get_ident())
        self.events.append(f"epoch_end:{trial.trial_id}:{epoch}")
        return None

    def on_trial_end(self, result):
        self.threads.add(threading.get_ident())
        self.events.append(f"trial_end:{result.trial_id}")


class TestCallbacksUnderConcurrency:
    def _resumable_sleeper(self):
        def train_fn(trial, epochs, state):
            time.sleep(0.01)
            epochs_done = (state or 0) + epochs
            return {"loss": 1.0 / epochs_done}, epochs_done

        return ResumableFunctionBackend(train_fn)

    def test_event_order_is_deterministic_at_any_worker_count(self):
        def run(workers):
            recorder = _Recorder()
            Experiment(
                space=SearchSpace({"x": [1, 2, 3, 4]}),
                searcher="grid",
                objective="loss",
                budget=Budget(epochs_per_trial=2),
                callbacks=[recorder],
            ).run(backend=self._resumable_sleeper(), workers=workers)
            return recorder

        serial = run(None)
        pooled = run(4)
        assert pooled.events == serial.events  # identical order, not just set

    def test_callbacks_fire_on_the_driving_thread_only(self):
        recorder = _Recorder()
        Experiment(
            space=SearchSpace({"x": [1, 2]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=2),
            callbacks=[recorder],
        ).run(backend=self._resumable_sleeper(), workers=2)
        # Workers train; callbacks observe from the experiment's own thread,
        # so user callbacks need no locking.
        assert recorder.threads == {threading.get_ident()}

    def test_stop_vote_retires_trial_without_blocking_cohort_peers(self):
        class _StopOne(Callback):
            def on_epoch_end(self, trial, epoch, metrics):
                return trial.trial_id == "grid-0" and epoch >= 1

        recorder = _Recorder()
        result = Experiment(
            space=SearchSpace({"x": [1, 2, 3]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=3),
            callbacks=[_StopOne(), recorder],
        ).run(backend=self._resumable_sleeper(), workers=3)
        by_id = {t.trial_id: t for t in result.trials}
        assert by_id["grid-0"].epochs_trained == 1  # stopped after its vote
        assert by_id["grid-1"].epochs_trained == 3  # peers kept training
        assert by_id["grid-2"].epochs_trained == 3
        # The stopped trial saw no further epochs but was still retired.
        assert "epoch_end:grid-0:2" not in recorder.events
        assert "trial_end:grid-0" in recorder.events
        assert len(result) == 3  # stopped trial still ranked

    def test_early_stop_metrics_survive_concurrency(self):
        from repro.api import EarlyStopping

        result = Experiment(
            space=SearchSpace({"x": [1, 2, 3, 4]}),
            searcher="grid",
            objective="loss",
            budget=Budget(epochs_per_trial=10),
            callbacks=[EarlyStopping(monitor="loss", mode="min", threshold=0.35)],
        ).run(backend=self._resumable_sleeper(), workers=4)
        # 1/epochs hits <= 0.35 at epoch 3 for every trial, at any worker count.
        assert [t.epochs_trained for t in result.trials] == [3, 3, 3, 3]
