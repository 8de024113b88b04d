"""Top-level facade: the API a Hydra user would program against.

This module is a thin veneer over the layered API described in ``DESIGN.md``
(facade → searcher → backend → engine):

* **Simulation** (:meth:`HydraSession.simulate`, :meth:`HydraSession.compare_strategies`)
  — cost-model-driven execution of BERT-Large-scale multi-model workloads on
  a simulated GPU cluster; produces makespan/utilization/memory numbers.
* **Real training** (:func:`run_model_selection`) — actually trains a set of
  candidate models on the numpy engine with Hydra-style shard-parallel
  interleaving, and returns the ranked trial results.

For anything richer — grid/random/ASHA searchers, callbacks, early stopping,
swapping execution engines — declare a :class:`repro.api.Experiment` and
pick a backend; ``run_model_selection`` itself is implemented that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.data.dataloader import DataLoader
from repro.exceptions import ConfigurationError, SchedulingError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.profiling.cost_model import ModelProfile
from repro.scheduler.base import ScheduleResult, Strategy, StrategyOutcome
from repro.scheduler.hybrid import HybridShardDataParallelStrategy
from repro.scheduler.policies import get_policy
from repro.scheduler.shard_parallel import ShardParallelStrategy
from repro.scheduler.sequential import (
    ModelParallelStrategy,
    SingleDeviceStrategy,
    TaskParallelStrategy,
)
from repro.scheduler.spill import SpilledShardParallelStrategy
from repro.scheduler.task import TrainingJob
from repro.selection.experiment import SelectionResult, TrialConfig
from repro.sharding.partitioner import make_plan
from repro.sharding.plan import ShardingPlan

#: fraction of device memory the planner leaves free for workspace/fragmentation
_MEMORY_HEADROOM = 0.9

_STRATEGIES: Dict[str, Callable[..., Strategy]] = {
    "single-device": SingleDeviceStrategy,
    "task-parallel": TaskParallelStrategy,
    "model-parallel": ModelParallelStrategy,
    "shard-parallel": ShardParallelStrategy,
    "hybrid": HybridShardDataParallelStrategy,
    "spilled-shard-parallel": SpilledShardParallelStrategy,
}


@dataclass(frozen=True)
class HydraConfig:
    """Cluster and scheduling configuration for a Hydra session."""

    num_devices: int = 4
    gpu: str = "v100-16gb"
    link: str = "pcie-gen3"
    policy: str = "critical_path"
    default_batch_size: int = 32

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ConfigurationError("num_devices must be positive")
        if self.default_batch_size <= 0:
            raise ConfigurationError("default_batch_size must be positive")


class HydraSession:
    """Holds a simulated cluster and provides planning / scheduling entry points."""

    def __init__(self, config: Optional[HydraConfig] = None):
        self.config = config if config is not None else HydraConfig()
        self.cluster = Cluster.single_server(
            num_devices=self.config.num_devices, gpu=self.config.gpu, link=self.config.link
        )

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan_model(
        self,
        model_id: str,
        profile: ModelProfile,
        batch_size: Optional[int] = None,
        num_shards: Optional[int] = None,
        strategy: str = "min_max",
    ) -> ShardingPlan:
        """Shard a model for this session's devices.

        With ``num_shards=None`` the planner picks the smallest shard count
        that fits the per-device memory budget (90 % of capacity).
        """
        batch = batch_size if batch_size is not None else self.config.default_batch_size
        if num_shards is not None:
            return make_plan(model_id, profile, batch_size=batch, num_shards=num_shards,
                             strategy=strategy)
        # Find the minimal shard count that fits the budget, then rebalance the
        # boundaries with the min-max partitioner so shards are evenly sized
        # (greedy bin-packing alone can leave one huge shard and one sliver).
        device_budget = int(self.cluster.devices[0].spec.memory_bytes * _MEMORY_HEADROOM)
        minimal = make_plan(model_id, profile, batch_size=batch,
                            memory_limit_bytes=device_budget)
        shard_count = minimal.num_shards
        while True:
            plan = make_plan(model_id, profile, batch_size=batch, num_shards=shard_count,
                             strategy=strategy)
            if plan.max_shard_working_bytes <= device_budget:
                break
            shard_count += 1
            if shard_count > len(profile):
                raise ConfigurationError(
                    f"model {model_id!r} cannot be partitioned to fit a "
                    f"{device_budget}-byte device budget"
                )
        if plan.num_shards > len(self.cluster):
            raise ConfigurationError(
                f"model {model_id!r} needs {plan.num_shards} shards but the cluster has "
                f"{len(self.cluster)} devices"
            )
        return plan

    def make_job(
        self,
        model_id: str,
        profile: ModelProfile,
        num_epochs: int = 1,
        batches_per_epoch: int = 1,
        batch_size: Optional[int] = None,
        num_shards: Optional[int] = None,
    ) -> TrainingJob:
        """Plan a model and wrap it into a :class:`TrainingJob`."""
        batch = batch_size if batch_size is not None else self.config.default_batch_size
        plan = self.plan_model(model_id, profile, batch_size=batch, num_shards=num_shards)
        return TrainingJob(
            model_id=model_id,
            plan=plan,
            num_epochs=num_epochs,
            batches_per_epoch=batches_per_epoch,
            samples_per_batch=batch,
        )

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def make_strategy(self, name: str, **kwargs) -> Strategy:
        if name not in _STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {name!r}; available: {sorted(_STRATEGIES)}"
            )
        factory = _STRATEGIES[name]
        if name in ("shard-parallel", "hybrid", "spilled-shard-parallel") and "policy" not in kwargs:
            kwargs["policy"] = get_policy(self.config.policy)
        return factory(**kwargs)

    def simulate(self, jobs: Sequence[TrainingJob], strategy: str = "shard-parallel",
                 **strategy_kwargs) -> ScheduleResult:
        """Simulate running ``jobs`` under one strategy on a fresh cluster."""
        self.cluster.reset()
        return self.make_strategy(strategy, **strategy_kwargs).schedule(jobs, self.cluster)

    def compare_strategies(
        self,
        jobs: Sequence[TrainingJob],
        strategies: Sequence[str] = ("task-parallel", "model-parallel", "shard-parallel"),
    ) -> Dict[str, StrategyOutcome]:
        """Simulate the same jobs under several strategies.

        Infeasibility (e.g. classic task parallelism confronted with a
        larger-than-device model) is a *result* of the comparison, not an
        error: such strategies come back as a skipped
        :class:`StrategyOutcome` carrying the reason.
        """
        outcomes: Dict[str, StrategyOutcome] = {}
        for name in strategies:
            self.cluster.reset()
            try:
                result = self.make_strategy(name).schedule(jobs, self.cluster)
            except SchedulingError as error:
                outcomes[name] = StrategyOutcome(strategy=name, skip_reason=str(error))
            else:
                outcomes[name] = StrategyOutcome(strategy=name, result=result)
        return outcomes

    def available_strategies(self) -> List[str]:
        return sorted(_STRATEGIES)


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
