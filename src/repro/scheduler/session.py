"""The planner: shard models to fit a simulated cluster, then schedule them.

:class:`HydraSession` plans before it schedules (paper §3–4) and names the
six strategies in one table.  A name means one policy: the strategy's own
default, unless :attr:`HydraConfig.policy` names one for every strategy.
Nothing here imports the experiment API or the facade that re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.exceptions import ConfigurationError, SchedulingError
from repro.profiling.cost_model import ModelProfile
from repro.scheduler.base import ScheduleResult, Strategy, StrategyOutcome
from repro.scheduler.hybrid import HybridShardDataParallelStrategy
from repro.scheduler.policies import get_policy
from repro.scheduler.sequential import (
    ModelParallelStrategy,
    SingleDeviceStrategy,
    TaskParallelStrategy,
)
from repro.scheduler.shard_parallel import ShardParallelStrategy
from repro.scheduler.spill import SpilledShardParallelStrategy
from repro.scheduler.task import TrainingJob
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
    #: a ``get_policy`` name applied to every strategy; None keeps their own
    policy: Optional[str] = None
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
            num_devices=self.config.num_devices, gpu=self.config.gpu
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
    ) -> ShardingPlan:
        """Shard a model for this session's devices.

        With ``num_shards=None`` the planner picks the smallest shard count
        that fits the per-device memory budget (90 % of capacity).
        """
        batch = batch_size if batch_size is not None else self.config.default_batch_size
        if num_shards is not None:
            return make_plan(model_id, profile, batch_size=batch, num_shards=num_shards)
        # Find the minimal shard count that fits the budget, then rebalance the
        # boundaries with the min-max partitioner so shards are evenly sized
        # (greedy bin-packing alone can leave one huge shard and one sliver).
        device_budget = int(self.cluster.devices[0].spec.memory_bytes * _MEMORY_HEADROOM)
        minimal = make_plan(model_id, profile, batch_size=batch,
                            memory_limit_bytes=device_budget)
        shard_count = minimal.num_shards
        while True:
            plan = make_plan(model_id, profile, batch_size=batch, num_shards=shard_count)
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
    def make_strategy(self, name: str) -> Strategy:
        """The strategy ``name`` denotes, under ``config.policy`` if one is set."""
        if name not in _STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {name!r}; available: {sorted(_STRATEGIES)}"
            )
        if self.config.policy is None:
            return _STRATEGIES[name]()
        return _STRATEGIES[name](policy=get_policy(self.config.policy))

    def simulate(self, jobs: Sequence[TrainingJob],
                 strategy: str = "shard-parallel") -> ScheduleResult:
        """Simulate running ``jobs`` under one strategy on a fresh cluster."""
        self.cluster.reset()
        return self.make_strategy(strategy).schedule(jobs, self.cluster)

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
