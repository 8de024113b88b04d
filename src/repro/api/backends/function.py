"""Backends that adapt plain train functions to the backend protocol.

A raw callable runs through the same
:class:`~repro.api.experiment.TrialRunner` machinery as the engine backends —
the spelling for surrogate objectives and tests:
``Experiment(space, GridSearcher(), backend=FunctionBackend(train_fn))``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.selection.experiment import TrialConfig

#: one-shot train function: (config, num_epochs) -> metrics
TrainFn = Callable[[TrialConfig, int], Dict[str, float]]

#: resumable train function: (config, num_epochs, previous_state) -> (metrics, state)
ResumableTrainFn = Callable[[TrialConfig, int, object], Tuple[Dict[str, float], object]]


class FunctionBackend(ExecutionBackend):
    """Wraps a one-shot ``TrainFn``; each trial is trained in a single call.

    One-shot means not resumable: multi-rung searchers (successive halving)
    reject this backend, and the whole epoch budget arrives in one call.

    Example::

        backend = FunctionBackend(
            lambda trial, epochs: {"loss": float(trial.get("width")) / epochs}
        )
        Experiment(space=space, searcher="grid", backend=backend).run()
    """

    name = "function"
    resumable = False

    def __init__(self, train_fn: TrainFn):
        self.train_fn = train_fn

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        return dict(self.train_fn(handle.trial, epochs))


class ResumableFunctionBackend(ExecutionBackend):
    """Wraps a ``ResumableTrainFn``; the opaque state lives on the handle.

    The function receives the state it last returned (``None`` on the first
    call), which makes the backend resumable — eligible for successive
    halving and per-epoch callbacks.

    Example::

        def train_fn(trial, epochs, state):
            done = (state or 0) + epochs
            return {"loss": 1.0 / done}, done

        backend = ResumableFunctionBackend(train_fn)
    """

    name = "resumable-function"
    resumable = True

    def __init__(self, train_fn: ResumableTrainFn):
        self.train_fn = train_fn

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        metrics, state = self.train_fn(handle.trial, epochs, handle.state)
        handle.state = state
        return dict(metrics)
