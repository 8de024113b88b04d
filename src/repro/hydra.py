"""Top-level facade: the API a Hydra user would program against.

This module is a thin veneer over the layered API described in ``DESIGN.md``
(facade → searcher → backend → engine):

* **Simulation** (:class:`HydraSession`, re-exported from the planner in
  :mod:`repro.scheduler.session`) — BERT-Large-scale multi-model workloads
  on a simulated GPU cluster; produces makespan/utilization/memory numbers.
* **Real training** (:func:`run_model_selection`) — actually trains a set of
  candidate models on the numpy engine with Hydra-style shard-parallel
  interleaving, and returns the ranked trial results.

For anything richer — grid/random/ASHA searchers, callbacks, early stopping,
swapping execution engines — declare a :class:`repro.api.Experiment` and
pick a backend; ``run_model_selection`` itself is implemented that way.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.data.dataloader import DataLoader
from repro.exceptions import ConfigurationError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.scheduler.session import HydraConfig, HydraSession  # noqa: F401 (re-export)
from repro.selection.experiment import SelectionResult, TrialConfig

#: a model builder returns (model, optimizer, dataloader) for one trial
ModelBuilder = Callable[[], Tuple[ShardableModel, Optimizer, DataLoader]]


def run_model_selection(
    builders: Dict[str, ModelBuilder],
    num_devices: int = 2,
    num_epochs: int = 1,
    num_shards: Optional[int] = None,
    objective: str = "loss",
    mode: str = "min",
    workers: Optional[int] = None,
    registry=None,
) -> SelectionResult:
    """Really train a set of candidate models with shard-parallel interleaving.

    ``builders`` maps trial ids to zero-argument callables producing the
    model, its optimizer, and its data loader.  Every model is split into
    ``num_shards`` shards (default: one shard per block, capped at the device
    count) and trained for ``num_epochs`` epochs; the returned
    :class:`SelectionResult` ranks trials by their final-epoch ``objective``.

    ``workers`` > 1 trains the candidates concurrently on a worker pool (each
    in its own single-model trainer) instead of interleaving them in one
    shared trainer; rankings are identical either way.  A trial that raises
    becomes a :class:`~repro.selection.experiment.FailedTrial` in the result
    rather than aborting the run.

    ``registry`` (a :class:`~repro.serving.ModelRegistry`) publishes every
    candidate's trained parameters under its trial id, so the winner can be
    deployed afterwards::

        result = run_model_selection(builders, registry=registry)
        server = result.deploy(lambda t: builders[t.trial_id]()[0],
                               registry=registry)

    This is a facade over :class:`repro.api.Experiment` with a
    :class:`repro.api.ShardParallelBackend` and a fixed trial list.
    """
    from repro.api import Budget, Experiment, FixedSearcher, ShardParallelBackend

    if not builders:
        raise ConfigurationError("run_model_selection needs at least one model builder")
    trials = [
        TrialConfig(trial_id=trial_id, hyperparameters={}) for trial_id in builders
    ]
    backend = ShardParallelBackend(
        builder=lambda trial: builders[trial.trial_id](),
        num_devices=num_devices,
        num_shards=num_shards,
        registry=registry,
    )
    experiment = Experiment(
        searcher=FixedSearcher(trials, method="hydra_shard_parallel"),
        backend=backend,
        objective=objective,
        mode=mode,
        budget=Budget(epochs_per_trial=num_epochs),
        name="run_model_selection",
    )
    return experiment.run(workers=workers)
