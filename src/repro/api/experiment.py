"""The declarative experiment: one object that any searcher × backend can run.

``Experiment`` captures *what* to search (a :class:`SearchSpace`), *what to
optimise* (objective + mode), *how much* to spend (a :class:`Budget`), and
*how* to search (a :class:`Searcher`).  *Where* trials execute is a
pluggable :class:`~repro.api.backend.ExecutionBackend`, so the same
experiment can be simulated on the cost-model cluster to pick a plan and
then replayed on the real numpy engine::

    experiment = Experiment(space=space, searcher="grid", objective="loss")
    simulated = experiment.run(backend=sim_backend, objective="makespan_seconds")
    trained = experiment.run(backend=shard_backend)

The :class:`TrialRunner` is the glue between the two halves: it prepares
trials on the backend, steps them epoch by epoch (when the backend is
resumable), fires callbacks, records one result per trial (with its wall
time) into the run's :class:`SelectionResult`, and keeps handles alive so
multi-rung searchers can resume trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.api.callbacks import Callback, CallbackList
from repro.api.runtime.concurrent import ConcurrentBackend
from repro.api.searchers import Searcher, make_searcher
from repro.exceptions import ConfigurationError, SearchSpaceError
from repro.runtime.pool import RetryPolicy
from repro.selection.experiment import (
    FailedTrial,
    SelectionResult,
    TrialConfig,
    TrialResult,
)
from repro.selection.search_space import SearchSpace
from repro.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class Budget:
    """How much training a selection run may spend.

    ``epochs_per_trial`` is the budget of fixed-allocation searchers (grid,
    random, fixed lists); multi-rung searchers derive their own per-rung
    budgets.  ``max_trials`` caps how many configurations are tried when the
    searcher does not fix that itself.

    Example::

        Budget(epochs_per_trial=5, max_trials=16)

    Raises:
        ConfigurationError: if ``epochs_per_trial`` or ``max_trials`` is not
            positive.
    """

    epochs_per_trial: int = 1
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epochs_per_trial <= 0:
            raise ConfigurationError(
                f"epochs_per_trial must be positive, got {self.epochs_per_trial}"
            )
        if self.max_trials is not None and self.max_trials <= 0:
            raise ConfigurationError(f"max_trials must be positive, got {self.max_trials}")


class TrialRunner:
    """Drives trials from a searcher onto a backend, firing callbacks.

    One runner serves one ``Experiment.run`` invocation.  Searchers call
    :meth:`run_trials` with a cohort and an epoch budget, and later
    :meth:`retire` when they are done with a trial.  Handles persist between
    calls, which is what makes successive halving's resumed rungs work.

    The runner is a context manager: leaving the ``with`` block (or calling
    :meth:`finish`) retires every live trial, so backend ``teardown`` runs
    even when a searcher or backend raises mid-search.  Within
    :meth:`run_trials` itself, a cohort that raises is torn down before the
    exception propagates — trial handles never leak on failure paths.

    Example::

        result = SelectionResult("grid_search", objective="loss", mode="min")
        with TrialRunner(backend, space, budget, result, callbacks) as runner:
            searcher.run(runner)

    Raises:
        ConfigurationError: from :attr:`space` when a searcher needs a search
            space but the experiment declared none, and from
            :meth:`run_trials` on a non-positive epoch budget.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        space: Optional[SearchSpace],
        budget: Budget,
        result: SelectionResult,
        callbacks: CallbackList,
    ):
        self.backend = backend
        self._space = space
        self.budget = budget
        self.result = result
        self.callbacks = callbacks
        self._handles: Dict[str, TrialHandle] = {}
        self._retired: Set[str] = set()
        self._last_result: Dict[str, TrialResult] = {}

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TrialRunner":
        """Enter the runner's scope; trials retire when the scope exits."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Retire every live trial (teardown + callbacks), even on error."""
        self.finish()

    # ------------------------------------------------------------------ #
    @property
    def space(self) -> SearchSpace:
        """The experiment's search space (raises when none was declared)."""
        if self._space is None:
            raise ConfigurationError(
                "this experiment declares no search space, but its searcher "
                "requires one (only fixed trial lists run without a space)"
            )
        return self._space

    @property
    def objective(self) -> str:
        """The metric name trials are ranked by (e.g. ``"loss"``)."""
        return self.result.objective

    @property
    def mode(self) -> str:
        """``"min"`` or ``"max"`` — the direction of the objective."""
        return self.result.mode

    # ------------------------------------------------------------------ #
    def run_trials(
        self, trials: Sequence[TrialConfig], epochs: int
    ) -> List[TrialResult]:
        """Train a cohort for ``epochs`` epochs and record one result each.

        Already-retired trials are skipped.  Trials stopped early by a
        callback are recorded with the epochs they completed, retired, and
        omitted from the returned list — so a searcher never resumes them.
        Trials a fault-tolerant backend marks as failed (``handle.failure``)
        are recorded as :class:`~repro.selection.experiment.FailedTrial`,
        retired, and likewise omitted — the experiment itself survives.

        Resumable backends are stepped one epoch at a time *only when
        callbacks are registered* (they are the only epoch observers);
        otherwise the backend receives the whole budget in a single call,
        which avoids per-call setup overhead.

        If the backend raises (rather than reporting per-trial failures),
        every handle in the cohort is retired — ``teardown`` runs, releasing
        models and loaders — before the exception propagates.

        Raises:
            ConfigurationError: if ``epochs`` is not positive.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        active: List[TrialHandle] = []
        for trial in trials:
            if trial.trial_id in self._retired:
                continue
            handle = self._handles.get(trial.trial_id)
            if handle is None:
                handle = self.backend.prepare(trial)
                self._handles[trial.trial_id] = handle
                self.callbacks.on_trial_start(trial)
            active.append(handle)

        stopped: List[TrialHandle] = []
        # Epoch observers get a resumable backend one epoch at a time, so they
        # see every epoch and can stop single trials while the cohort goes on.
        # Otherwise the whole budget is one chunk: a one-shot backend's
        # contract, and no per-call setup cost when nobody is watching — a
        # stop vote then cannot rewind training but still retires the trial.
        observers = bool(self.callbacks.callbacks)
        chunk = 1 if (self.backend.resumable and observers) else epochs
        try:
            cohort = list(active)
            for _ in range(epochs // chunk):
                if not cohort:
                    break
                timed = [handle.wall_seconds for handle in cohort]
                started = time.monotonic()
                metrics_map = self.backend.train_many(cohort, chunk)
                window = time.monotonic() - started
                surviving: List[TrialHandle] = []
                for handle, before in zip(cohort, timed):
                    # A co-scheduling backend cannot split the call's time
                    # between its trials: each one is credited the whole call.
                    if handle.wall_seconds == before:
                        handle.wall_seconds += window
                    if handle.failure is not None:
                        continue
                    handle.epochs_trained += chunk
                    handle.last_metrics = dict(metrics_map[handle.trial_id])
                    if self.callbacks.on_epoch_end(
                        handle.trial, handle.epochs_trained, handle.last_metrics
                    ):
                        stopped.append(handle)
                    else:
                        surviving.append(handle)
                cohort = surviving
        except Exception:
            # Failure-path discipline: a backend/callback that raises must not
            # leak the cohort's prepared state (models, loaders, plans).
            # Best-effort — a teardown error must not mask the original one.
            for handle in active:
                if handle.trial_id not in self._retired:
                    try:
                        self._retire_handle(handle)
                    except Exception:
                        pass
            raise

        results: List[TrialResult] = []
        stopped_ids = {handle.trial_id for handle in stopped}
        failed = [handle for handle in active if handle.failure is not None]
        for handle in active:
            result = self._record(handle)
            if handle.failure is None and handle.trial_id not in stopped_ids:
                results.append(result)
        for handle in stopped + failed:
            self._retire_handle(handle)
        return results

    def retire(self, trials: Sequence[Union[TrialConfig, str]]) -> None:
        """Release trials the searcher is finished with (teardown + callbacks)."""
        for trial in trials:
            trial_id = trial if isinstance(trial, str) else trial.trial_id
            handle = self._handles.get(trial_id)
            if handle is not None and trial_id not in self._retired:
                self._retire_handle(handle)

    def finish(self) -> None:
        """Retire anything the searcher left running (safety net)."""
        for trial_id in list(self._handles):
            if trial_id not in self._retired:
                self._retire_handle(self._handles[trial_id])

    # ------------------------------------------------------------------ #
    def _record(self, handle: TrialHandle) -> TrialResult:
        # Annotations only fill gaps: a searched hyperparameter always wins
        # over whatever the backend derived for the same name.
        hyperparameters = dict(handle.trial.hyperparameters)
        for key, value in handle.annotations.items():
            hyperparameters.setdefault(key, value)
        fields = dict(
            trial_id=handle.trial_id,
            hyperparameters=hyperparameters,
            metrics=dict(handle.last_metrics),
            epochs_trained=handle.epochs_trained,
            wall_seconds=handle.wall_seconds,
        )
        handle.wall_seconds = 0.0
        if handle.failure is not None:
            result = FailedTrial(**fields, **handle.failure)
        elif self.objective not in handle.last_metrics:
            raise SearchSpaceError(
                f"metrics for trial {handle.trial_id!r} lack the objective {self.objective!r}"
            )
        else:
            result = TrialResult(**fields)
        self.result.trials.append(result)
        self._last_result[handle.trial_id] = result
        return result

    def _retire_handle(self, handle: TrialHandle) -> None:
        self._retired.add(handle.trial_id)
        self.backend.teardown(handle)
        result = self._last_result.get(handle.trial_id)
        if result is not None:
            self.callbacks.on_trial_end(result)


@dataclass
class Experiment:
    """A declarative model-selection experiment (see module docstring).

    ``searcher`` may be a :class:`Searcher` instance or a short name
    (``"grid"``, ``"random"``, ``"successive-halving"``).  ``backend`` may be
    left unset and supplied per :meth:`run` call instead — the idiom for
    simulating an experiment before executing it for real.  ``space`` may be
    ``None`` only for searchers that bring their own trials
    (:class:`FixedSearcher`).

    Example::

        experiment = Experiment(space=space, searcher="grid", objective="loss",
                                budget=Budget(epochs_per_trial=2))
        result = experiment.run(backend=backend, workers=4)

    Raises:
        ConfigurationError: from :meth:`run`, when no backend is available.
    """

    space: Optional[SearchSpace] = None
    searcher: Union[Searcher, str] = "grid"
    backend: Optional[ExecutionBackend] = None
    objective: str = "loss"
    mode: str = "min"
    budget: Budget = field(default_factory=Budget)
    callbacks: Sequence[Callback] = ()
    name: str = "experiment"

    def run(
        self,
        backend: Optional[ExecutionBackend] = None,
        objective: Optional[str] = None,
        mode: Optional[str] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        pool: Optional[str] = None,
        telemetry=None,
    ) -> SelectionResult:
        """Execute the experiment and return the ranked result.

        Per-call overrides support replaying the same experiment on a
        different backend (e.g. simulator vs real engine) or objective.

        ``workers`` wraps the backend in a
        :class:`~repro.api.runtime.ConcurrentBackend` for the duration of the
        run: every cohort's trials prepare/train/teardown concurrently on a
        pool of that many slots, and trial failures become ``FailedTrial``
        records.  ``retry`` configures that runtime's per-trial fault
        tolerance (retries, backoff, straggler timeout); passing ``retry``
        alone implies ``workers=1``.  ``workers=1`` uses the inline serial
        pool — same fault-tolerance semantics, no threads — so results and
        rankings are deterministic regardless of worker count.  With neither
        ``workers`` nor ``retry``, the backend runs directly and a raising
        trial propagates (after the cohort is torn down).

        ``pool`` picks the worker-pool flavour: ``"thread"`` (default) runs
        trials on threads in this process; ``"process"`` places each trial
        in a child **process** — true parallelism past the GIL for
        CPU-bound training.  Process pools require a picklable backend
        (module-level builder functions, not lambdas) and ship results back
        as checkpoints; losses and rankings are bit-identical across pools
        and worker counts.  Passing ``pool`` alone implies ``workers=1``.

        ``telemetry`` (a :class:`repro.telemetry.Telemetry` recorder) traces
        the whole run: an ``experiment`` span wraps the search, each trial
        and epoch gets a span (including trials running in child processes —
        their events flush back over the result channel), and backend/spill
        metrics register as snapshot collectors.  ``None`` (the default)
        leaves the zero-overhead no-op recorder in place.

        Raises:
            ConfigurationError: if neither the experiment nor the call
                provides a backend; if ``workers``/``retry`` are invalid; if
                they are passed alongside a backend that is already a
                ``ConcurrentBackend`` (configure that backend instead).
            SearchSpaceError: if ``mode`` is not ``"min"`` or ``"max"``,
                or a trial's metrics lack the objective.
        """
        engine = backend if backend is not None else self.backend
        if engine is None:
            raise ConfigurationError(
                f"experiment {self.name!r} has no backend; pass one to run()"
            )
        searcher = (
            make_searcher(self.searcher) if isinstance(self.searcher, str) else self.searcher
        )
        result = SelectionResult(
            searcher.method,
            objective=objective if objective is not None else self.objective,
            mode=mode if mode is not None else self.mode,
        )
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        owned_runtime: Optional[ConcurrentBackend] = None
        if isinstance(engine, ConcurrentBackend):
            # The backend brought its own runtime; runtime knobs from the
            # call would be silently dropped, so reject them loudly.
            if workers is not None or retry is not None or pool is not None:
                raise ConfigurationError(
                    "backend is already a ConcurrentBackend; configure workers/"
                    "retry/pool on it at construction instead of passing them "
                    "to run()"
                )
        elif workers is not None or retry is not None or pool is not None:
            # workers=1 still gets the fault-tolerant runtime — on the inline
            # serial pool — so retry semantics are identical at every count.
            engine = owned_runtime = ConcurrentBackend(
                engine,
                workers=workers if workers is not None else 1,
                retry=retry,
                pool_kind=pool if pool is not None else "thread",
            )
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        if telemetry.enabled:
            # Attach to the *fully wrapped* engine so the runtime layer can
            # propagate (or, for process pools, re-create) the recorder.
            setter = getattr(engine, "set_telemetry", None)
            if callable(setter):
                setter(telemetry)
        hooks = CallbackList(self.callbacks if callbacks is None else callbacks)
        hooks.on_experiment_start(self)
        try:
            # Even on a mid-search failure, live trial state must reach
            # backend.teardown and on_trial_end observers (runner.__exit__).
            with TrialRunner(engine, self.space, self.budget, result, hooks) as runner:
                with telemetry.span("experiment", cat="experiment", experiment=self.name):
                    searcher.run(runner)
        finally:
            if owned_runtime is not None:
                owned_runtime.close()
        hooks.on_experiment_end(result)
        return result
