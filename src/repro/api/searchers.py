"""Search algorithms as classes over the backend protocol.

A :class:`Searcher` decides *which* trials to run and for *how many* epochs;
it never touches an execution engine.  It drives a
:class:`~repro.api.experiment.TrialRunner` whose :meth:`run_trials` trains a
cohort on whatever backend the experiment was given — so grid search can run
against the cluster simulator and ASHA against the real shard-parallel
trainer without either knowing the difference.

To search over a plain callable objective, pair a searcher with
:class:`~repro.api.backends.function.FunctionBackend` (or the resumable
variant, for successive halving).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SearchSpaceError
from repro.selection.experiment import TrialConfig


class Searcher:
    """Base class: emit trials into a runner and react to their results.

    Example (a trivial custom searcher)::

        class OneTrial(Searcher):
            method = "one"
            def run(self, session):
                trial = TrialConfig("only", {"width": 16})
                session.run_trials([trial], session.budget.epochs_per_trial)
                session.retire([trial])
    """

    #: recorded as ``SelectionResult.method``
    method: str = "searcher"

    def run(self, session) -> None:
        """Drive one search to completion against ``session`` (a TrialRunner)."""
        raise NotImplementedError


class FixedSearcher(Searcher):
    """Runs a caller-supplied list of trials once, with the full epoch budget.

    Example::

        trials = [TrialConfig("a", {"width": 16}), TrialConfig("b", {"width": 32})]
        Experiment(searcher=FixedSearcher(trials), backend=backend).run()

    Raises:
        SearchSpaceError: if ``trials`` is empty.
    """

    method = "fixed"

    def __init__(self, trials: Sequence[TrialConfig], method: Optional[str] = None):
        if not trials:
            raise SearchSpaceError("FixedSearcher needs at least one trial")
        self.trials = list(trials)
        if method is not None:
            self.method = method

    def run(self, session) -> None:
        session.run_trials(self.trials, session.budget.epochs_per_trial)
        session.retire(self.trials)


class GridSearcher(Searcher):
    """Exhaustive Cartesian grid over the space's ``Choice`` parameters.

    This is the workload shape the paper's motivating example describes (a
    radiologist comparing dozens of configurations): an embarrassingly
    parallel set of independent training jobs — which is exactly what the
    shard-parallel and Cerebro backends co-schedule as one cohort, and what
    ``Experiment.run(workers=N)`` spreads across the worker pool.

    Example::

        Experiment(space=space, searcher=GridSearcher(), backend=backend).run()

    Raises:
        ConfigurationError: at run time, when the experiment has no search
            space to enumerate.
    """

    method = "grid_search"

    def __init__(self, max_trials: Optional[int] = None):
        self.max_trials = max_trials

    def run(self, session) -> None:
        cap = self.max_trials
        if cap is None:
            cap = session.budget.max_trials
        trials: List[TrialConfig] = []
        for index, hyperparameters in enumerate(session.space.grid()):
            if cap is not None and index >= cap:
                break
            trials.append(TrialConfig(trial_id=f"grid-{index}", hyperparameters=hyperparameters))
        session.run_trials(trials, session.budget.epochs_per_trial)
        session.retire(trials)


class RandomSearcher(Searcher):
    """Independently samples ``num_trials`` configurations from the space.

    Example::

        Experiment(space=space, searcher=RandomSearcher(num_trials=8, seed=0),
                   backend=backend).run()

    Raises:
        ValueError: if ``num_trials`` is not positive.
    """

    method = "random_search"

    def __init__(self, num_trials: Optional[int] = None, seed: Optional[int] = 0):
        if num_trials is not None and num_trials <= 0:
            raise ValueError(f"num_trials must be positive, got {num_trials}")
        self.num_trials = num_trials
        self.seed = seed

    def run(self, session) -> None:
        num_trials = self.num_trials
        if num_trials is None:
            num_trials = session.budget.max_trials or 16
        rng = np.random.default_rng(self.seed)
        trials = [
            TrialConfig(trial_id=f"random-{index}", hyperparameters=session.space.sample(rng))
            for index in range(num_trials)
        ]
        session.run_trials(trials, session.budget.epochs_per_trial)
        session.retire(trials)


class SuccessiveHalvingSearcher(Searcher):
    """Successive halving (the core of Hyperband/ASHA-style early stopping).

    All trials start on a small epoch budget; after each rung the worst
    ``1 - 1/reduction_factor`` are culled and survivors continue with a
    ``reduction_factor``-times larger budget.  Requires a resumable backend
    (every built-in engine backend is; the plain function backend is not).

    Example::

        searcher = SuccessiveHalvingSearcher(num_trials=8, min_epochs=1,
                                             reduction_factor=2, seed=0)
        Experiment(space=space, searcher=searcher, backend=backend).run()

    Raises:
        SearchSpaceError: if fewer than two trials are requested, the
            reduction factor is below 2, or (at run time) the backend cannot
            resume trials.
    """

    method = "successive_halving"

    def __init__(
        self,
        num_trials: Optional[int] = 8,
        min_epochs: int = 1,
        reduction_factor: int = 2,
        seed: Optional[int] = 0,
    ):
        if num_trials is not None and num_trials <= 1:
            raise SearchSpaceError("successive halving needs at least two trials")
        if reduction_factor < 2:
            raise SearchSpaceError(
                f"reduction_factor must be >= 2, got {reduction_factor}"
            )
        self.num_trials = num_trials
        self.min_epochs = min_epochs
        self.reduction_factor = reduction_factor
        self.seed = seed

    def run(self, session) -> None:
        num_trials = self.num_trials
        if num_trials is None:
            num_trials = session.budget.max_trials or 8
        if num_trials <= 1:
            raise SearchSpaceError("successive halving needs at least two trials")
        if not session.backend.resumable:
            raise SearchSpaceError(
                f"successive halving requires a resumable backend; "
                f"{session.backend.name!r} trains each trial exactly once"
            )
        rng = np.random.default_rng(self.seed)
        trials = [
            TrialConfig(trial_id=f"sha-{index}", hyperparameters=session.space.sample(rng))
            for index in range(num_trials)
        ]
        total_rungs = max(1, int(math.floor(math.log(num_trials, self.reduction_factor))))
        survivors = list(trials)
        epochs_this_rung = self.min_epochs
        reverse = session.mode == "max"
        for rung in range(total_rungs + 1):
            results = session.run_trials(survivors, epochs_this_rung)
            # Match by id: trials stopped early by a callback drop out of the
            # returned results and are culled implicitly.
            by_id = {trial.trial_id: trial for trial in survivors}
            scored = [
                (result.metric(session.objective), by_id[result.trial_id])
                for result in results
            ]
            if len(scored) <= 1 or rung == total_rungs:
                session.retire([trial for _, trial in scored])
                break
            scored.sort(key=lambda item: item[0], reverse=reverse)
            keep = max(1, len(scored) // self.reduction_factor)
            survivors = [trial for _, trial in scored[:keep]]
            session.retire([trial for _, trial in scored[keep:]])
            epochs_this_rung *= self.reduction_factor


_SEARCHERS: Dict[str, type] = {
    "grid": GridSearcher,
    "random": RandomSearcher,
    "successive-halving": SuccessiveHalvingSearcher,
    "sha": SuccessiveHalvingSearcher,
    "asha": SuccessiveHalvingSearcher,
}


def make_searcher(name: str, **kwargs) -> Searcher:
    """Instantiate a searcher by short name (``grid``/``random``/``sha``...).

    Example::

        assert make_searcher("grid").method == "grid_search"

    Raises:
        SearchSpaceError: if ``name`` is not a registered searcher.
    """
    key = name.lower()
    if key not in _SEARCHERS:
        raise SearchSpaceError(
            f"unknown searcher {name!r}; available: {sorted(_SEARCHERS)}"
        )
    return _SEARCHERS[key](**kwargs)
