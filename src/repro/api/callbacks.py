"""Event hooks for experiment runs.

The :class:`~repro.api.experiment.TrialRunner` fires these callbacks around
every trial it drives, whatever the searcher or backend.  A callback can
observe (logging, timing) or intervene: returning a truthy value from
:meth:`Callback.on_epoch_end` stops that trial early — the trial keeps the
metrics it has and is retired, while the rest of the cohort continues.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.selection.experiment import SelectionResult, TrialConfig, TrialResult
from repro.utils.logging import get_logger


class Callback:
    """Base class; override any subset of the hooks.

    Hooks always fire on the experiment's driving thread — never inside a
    worker — so callbacks need no locking even at ``workers=N``, and the
    event order is deterministic at any worker count.

    Example::

        class PrintLoss(Callback):
            def on_epoch_end(self, trial, epoch, metrics):
                print(trial.trial_id, epoch, metrics.get("loss"))

        Experiment(space=space, searcher="grid", backend=backend,
                   callbacks=[PrintLoss()]).run()
    """

    def on_experiment_start(self, experiment) -> None:
        """Fired once before the searcher starts emitting trials."""

    def on_trial_start(self, trial: TrialConfig) -> None:
        """Fired when a trial is first prepared on the backend."""

    def on_epoch_end(
        self, trial: TrialConfig, epoch: int, metrics: Dict[str, float]
    ) -> Optional[bool]:
        """Fired after each trained epoch; return True to stop this trial."""
        return None

    def on_trial_end(self, result: TrialResult) -> None:
        """Fired when a trial is retired (finished, culled, or stopped early)."""

    def on_experiment_end(self, result: SelectionResult) -> None:
        """Fired once with the final ranked result."""


class CallbackList(Callback):
    """Fans events out to several callbacks, preserving order.

    Example::

        hooks = CallbackList([LoggingCallback(), TrialTimer()])
        hooks.on_trial_start(trial)  # both callbacks observe, in list order
    """

    def __init__(self, callbacks: Iterable[Callback] = ()):
        self.callbacks: List[Callback] = list(callbacks)

    def on_experiment_start(self, experiment) -> None:
        for callback in self.callbacks:
            callback.on_experiment_start(experiment)

    def on_trial_start(self, trial: TrialConfig) -> None:
        for callback in self.callbacks:
            callback.on_trial_start(trial)

    def on_epoch_end(
        self, trial: TrialConfig, epoch: int, metrics: Dict[str, float]
    ) -> bool:
        # Every callback sees the epoch even if an earlier one votes to stop.
        stop = False
        for callback in self.callbacks:
            if callback.on_epoch_end(trial, epoch, metrics):
                stop = True
        return stop

    def on_trial_end(self, result: TrialResult) -> None:
        for callback in self.callbacks:
            callback.on_trial_end(result)

    def on_experiment_end(self, result: SelectionResult) -> None:
        for callback in self.callbacks:
            callback.on_experiment_end(result)


class LoggingCallback(Callback):
    """Logs trial lifecycle events through :mod:`repro.utils.logging`.

    Example::

        Experiment(space=space, searcher="grid", backend=backend,
                   callbacks=[LoggingCallback(every_epoch=True)]).run()
    """

    def __init__(self, every_epoch: bool = False):
        self.logger = get_logger("experiment")
        self.every_epoch = every_epoch

    def on_trial_start(self, trial: TrialConfig) -> None:
        self.logger.info("trial %s started: %s", trial.trial_id, trial.hyperparameters)

    def on_epoch_end(
        self, trial: TrialConfig, epoch: int, metrics: Dict[str, float]
    ) -> Optional[bool]:
        if self.every_epoch:
            self.logger.info("trial %s epoch %d: %s", trial.trial_id, epoch, metrics)
        return None

    def on_trial_end(self, result: TrialResult) -> None:
        self.logger.info(
            "trial %s finished after %d epochs: %s",
            result.trial_id, result.epochs_trained, result.metrics,
        )

    def on_experiment_end(self, result: SelectionResult) -> None:
        if result.trials:
            best = result.best()
            self.logger.info(
                "%s finished: %d trials, best %s (%s=%.6g)",
                result.method, len(result), best.trial_id,
                result.objective, best.metric(result.objective),
            )


class EarlyStopping(Callback):
    """Stops a trial when its monitored metric plateaus or crosses a threshold.

    ``threshold`` stops as soon as the metric is good enough (``<= threshold``
    in min mode, ``>= threshold`` in max mode).  ``patience`` stops after that
    many consecutive epochs without at least ``min_delta`` improvement.
    Either criterion may be used alone.

    Example::

        stopper = EarlyStopping(monitor="loss", mode="min",
                                threshold=0.1, patience=3)
        Experiment(space=space, searcher="grid", backend=backend,
                   callbacks=[stopper]).run()

    Raises:
        ValueError: if ``mode`` is not ``"min"``/``"max"`` or neither
            criterion is given.
    """

    def __init__(
        self,
        monitor: str = "loss",
        mode: str = "min",
        threshold: Optional[float] = None,
        patience: Optional[int] = None,
        min_delta: float = 0.0,
    ):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if threshold is None and patience is None:
            raise ValueError("EarlyStopping needs a threshold and/or a patience")
        self.monitor = monitor
        self.mode = mode
        self.threshold = threshold
        self.patience = patience
        self.min_delta = float(min_delta)
        self._best: Dict[str, float] = {}
        self._stale_epochs: Dict[str, int] = {}

    def _improved(self, trial_id: str, value: float) -> bool:
        best = self._best.get(trial_id)
        if best is None:
            return True
        if self.mode == "min":
            return value < best - self.min_delta
        return value > best + self.min_delta

    def on_epoch_end(
        self, trial: TrialConfig, epoch: int, metrics: Dict[str, float]
    ) -> Optional[bool]:
        if self.monitor not in metrics:
            return None
        value = metrics[self.monitor]
        if self.threshold is not None:
            reached = value <= self.threshold if self.mode == "min" else value >= self.threshold
            if reached:
                return True
        if self.patience is not None:
            if self._improved(trial.trial_id, value):
                self._best[trial.trial_id] = value
                self._stale_epochs[trial.trial_id] = 0
            else:
                stale = self._stale_epochs.get(trial.trial_id, 0) + 1
                self._stale_epochs[trial.trial_id] = stale
                if stale >= self.patience:
                    return True
        return None

    def on_trial_end(self, result: TrialResult) -> None:
        self._best.pop(result.trial_id, None)
        self._stale_epochs.pop(result.trial_id, None)


class TrialTimer(Callback):
    """Accumulates real wall-clock seconds per trial (prepare to retire).

    Example::

        timer = TrialTimer()
        Experiment(space=space, searcher="grid", backend=backend,
                   callbacks=[timer]).run()
        print(timer.wall_seconds)  # {"grid-0": 0.42, ...}
    """

    def __init__(self) -> None:
        self.wall_seconds: Dict[str, float] = {}
        self._started: Dict[str, float] = {}

    def on_trial_start(self, trial: TrialConfig) -> None:
        self._started[trial.trial_id] = time.monotonic()

    def on_trial_end(self, result: TrialResult) -> None:
        started = self._started.pop(result.trial_id, None)
        if started is not None:
            elapsed = time.monotonic() - started
            self.wall_seconds[result.trial_id] = (
                self.wall_seconds.get(result.trial_id, 0.0) + elapsed
            )
