"""The execution-backend protocol of the declarative experiment API.

An :class:`ExecutionBackend` is anything that can take a
:class:`~repro.selection.experiment.TrialConfig` and turn epochs of budget
into metrics.  The contract is deliberately tiny:

* :meth:`ExecutionBackend.prepare` materialises whatever per-trial state the
  backend needs (a real model + optimizer, a sharding plan for the cost-model
  simulator, ...) and wraps it in a :class:`TrialHandle`;
* :meth:`ExecutionBackend.train` advances one prepared trial by ``epochs``
  epochs and returns the latest metrics;
* :meth:`ExecutionBackend.train_many` does the same for a *cohort* of trials
  — backends that can co-schedule several models (shard-parallel
  interleaving, multi-job cluster simulation) override it to train the
  whole cohort together;
* :meth:`ExecutionBackend.teardown` releases the per-trial state.

Two more hooks carry a trial across a process boundary:
:meth:`~ExecutionBackend.save_snapshot` turns live state into a picklable
token and :meth:`~ExecutionBackend.finalize_snapshot` turns the token back
into live state.  A memory budget, like every other engine setting, is a
constructor argument of the backend that supports it.

Searchers never see any of this directly; they talk to a
:class:`~repro.api.experiment.TrialRunner`, which drives the backend and
keeps handles alive across calls so multi-rung searchers (successive
halving) can resume trials.  Backends that cannot resume a trial — e.g. a
legacy one-shot train function — set ``resumable = False`` and receive their
whole epoch budget in a single :meth:`train` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence

from repro.selection.experiment import TrialConfig
from repro.telemetry import NULL_TELEMETRY


@dataclass
class TrialHandle:
    """A prepared trial: the searcher-visible token for backend-private state.

    ``state`` belongs to the backend and is opaque to everyone else.
    ``annotations`` are extra hyperparameter-like facts the backend learned
    while preparing the trial (e.g. the shard count it chose); the runner
    merges them into the recorded :class:`TrialResult` hyperparameters.
    ``wall_seconds`` accumulates this trial's own training time when the
    backend can attribute it (sequential and pooled backends); for a trial
    a ``train_many`` call leaves untimed (co-scheduling backends), the
    runner credits the whole call.  ``failure`` is set by fault-tolerant
    backends (the concurrent runtime) when the trial fails terminally, to
    the :class:`~repro.selection.experiment.FailedTrial` fields the backend
    knows — ``{"error": "RuntimeError: boom", "timed_out": False}``; the
    runner records it as a ``FailedTrial`` and retires it instead of
    aborting the experiment.
    """

    trial: TrialConfig
    state: Any = None
    epochs_trained: int = 0
    last_metrics: Dict[str, float] = field(default_factory=dict)
    annotations: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    failure: Any = None

    @property
    def trial_id(self) -> str:
        """The wrapped trial's unique id (e.g. ``"grid-0"``)."""
        return self.trial.trial_id


class ExecutionBackend:
    """Base class every execution engine adapts to (see module docstring)."""

    #: short name used in reports and error messages
    name: str = "backend"

    #: whether ``train`` may be called repeatedly on the same handle to
    #: continue training (required for successive halving and per-epoch
    #: callbacks; one-shot function backends set this to False)
    resumable: bool = True

    #: whether per-trial concurrent dispatch preserves this backend's
    #: semantics.  False for backends whose *metrics* are a property of the
    #: whole co-scheduled cohort (the cluster simulator: contention is the
    #: quantity being measured), which the concurrent runtime must refuse
    #: to wrap rather than silently change what they report
    concurrency_safe: bool = True

    #: the recorder instrumented paths consult; the shared no-op by default.
    #: A class attribute so pickled backends (process-pool transport) fall
    #: back to the no-op in the child unless explicitly re-wired there.
    telemetry = NULL_TELEMETRY

    def set_telemetry(self, telemetry) -> None:
        """Attach a recorder (``None`` restores the shared no-op).

        ``Experiment.run(telemetry=...)`` calls this on the fully wrapped
        engine; wrapper backends override it to propagate inward.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def prepare(self, trial: TrialConfig) -> TrialHandle:
        """Materialise per-trial state; subclasses usually extend this."""
        return TrialHandle(trial=trial)

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        """Advance ``handle`` by ``epochs`` epochs and return current metrics."""
        raise NotImplementedError

    def train_many(
        self, handles: Sequence[TrialHandle], epochs: int
    ) -> Dict[str, Dict[str, float]]:
        """Train a cohort; the default runs trials one at a time.

        Backends with real multi-model execution (shard-parallel
        interleaving, multi-job simulation) override this so
        the cohort shares the cluster instead of queueing on it.  Because
        execution here is sequential, each trial's own wall time is
        attributable and accumulated on its handle.
        """
        metrics: Dict[str, Dict[str, float]] = {}
        for handle in handles:
            started = time.monotonic()
            metrics[handle.trial_id] = self.train(handle, epochs)
            handle.wall_seconds += time.monotonic() - started
        return metrics

    def teardown(self, handle: TrialHandle) -> None:
        """Release per-trial state (models, plans, loaders)."""
        handle.state = None

    # ------------------------------------------------------------------ #
    # Snapshot protocol (process-pool trial transport)
    # ------------------------------------------------------------------ #
    def save_snapshot(self, handle: TrialHandle, directory: str) -> Any:
        """Capture ``handle``'s trained state as a picklable token.

        The process runtime runs each trial's training in a child process;
        live state (models, optimizers, spill managers) cannot cross back
        over the pipe, so after training the child calls ``save_snapshot``
        and ships the returned token instead.  Backends with real training
        state write a checkpoint under ``directory`` and return its path
        (see :class:`~repro.api.backends.ShardParallelBackend`); the default
        returns ``handle.state`` as-is, which suffices for backends whose
        state already pickles (function backends, simulators).
        """
        return handle.state

    def finalize_snapshot(self, handle: TrialHandle) -> None:
        """Turn a :meth:`save_snapshot` token on ``handle`` back into live state.

        The one way back from a snapshot, wherever live state is needed: in
        a pool child before a resumed trial trains, or in a backend's own
        ``teardown`` when its retirement work needs the trained objects
        (:class:`~repro.api.backends.ShardParallelBackend` publishes from
        the snapshot archive instead).  Must be a no-op on state that is
        already live.  The default does nothing: its token *is* the state.
        """
