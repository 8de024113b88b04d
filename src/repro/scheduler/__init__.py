"""Scheduling: how multi-model training work is mapped onto devices.

A schedule is a value.  Every strategy implements one method,
``plan(jobs, cluster) -> SchedulePlan`` (:mod:`repro.scheduler.plan`): waves
of jobs, each with its shard-task graph, placement, extra ordering edges and
priorities, plus how memory is accounted and which shards live on the host.
:meth:`repro.scheduler.base.Strategy.schedule` is the one executor: it lowers
a plan to simulator tasks, runs the cluster simulator wave by wave and builds
the :class:`~repro.scheduler.base.ScheduleResult`.  The within-batch task
order and the staggered device rule come from :mod:`repro.sharding.order`,
which the real engine (:mod:`repro.training.sharded_trainer`) reads too.

The strategies are the three regimes the paper compares (Figure 2), the
Cerebro-style hybrid it plans (§4.1) and host offload; each contributes only
its rules:

* :class:`~repro.scheduler.sequential.SingleDeviceStrategy` — every shard on
  one GPU, all jobs in one queue (the reference point).
* :class:`~repro.scheduler.sequential.TaskParallelStrategy` — job ``j`` on
  GPU ``j mod D``, one queue per GPU (Ray-Tune-style model selection).
* :class:`~repro.scheduler.sequential.ModelParallelStrategy` — shard ``i`` on
  GPU ``i mod D``, all jobs in one queue (classic model parallelism).
* :class:`~repro.scheduler.shard_parallel.ShardParallelStrategy` — **Hydra**:
  staggered placement and no queues, so shards of *different* models
  interleave and no device waits on one model's sequential dependency chain.
* :class:`~repro.scheduler.hybrid.HybridShardDataParallelStrategy` — Hydra
  shards plus Cerebro-style data partitions: a job is a chain of per-partition chunks.
* :class:`~repro.scheduler.spill.SpilledShardParallelStrategy` — one wave no
  matter the memory: idle shards live in host DRAM, streamed in around passes.

:class:`~repro.scheduler.session.HydraSession`, the planner, sits on top:
it shards models for a simulated cluster and runs strategies by name.
"""

from repro.scheduler.task import TaskKind, ShardTask, TrainingJob, build_task_graph
from repro.scheduler.placement import (
    Placement,
    round_robin_placement,
    memory_aware_placement,
    plan_waves,
)
from repro.scheduler.policies import (
    fifo_policy,
    backward_first_policy,
    critical_path_policy,
    model_round_robin_policy,
    random_policy,
    get_policy,
)
from repro.scheduler.ranking import compute_upward_ranks
from repro.scheduler.plan import SchedulePlan
from repro.scheduler.base import Strategy, ScheduleResult
from repro.scheduler.sequential import (
    SingleDeviceStrategy,
    TaskParallelStrategy,
    ModelParallelStrategy,
)
from repro.scheduler.shard_parallel import ShardParallelStrategy
from repro.scheduler.hybrid import HybridShardDataParallelStrategy
from repro.scheduler.spill import (
    SpillPlan,
    SpilledShardParallelStrategy,
    spill_aware_placement,
)
from repro.scheduler.session import HydraConfig, HydraSession

__all__ = [
    "TaskKind",
    "ShardTask",
    "TrainingJob",
    "build_task_graph",
    "Placement",
    "round_robin_placement",
    "memory_aware_placement",
    "plan_waves",
    "fifo_policy",
    "backward_first_policy",
    "critical_path_policy",
    "model_round_robin_policy",
    "random_policy",
    "get_policy",
    "compute_upward_ranks",
    "SchedulePlan",
    "Strategy",
    "ScheduleResult",
    "SingleDeviceStrategy",
    "TaskParallelStrategy",
    "ModelParallelStrategy",
    "ShardParallelStrategy",
    "HybridShardDataParallelStrategy",
    "SpillPlan",
    "SpilledShardParallelStrategy",
    "spill_aware_placement",
    "HydraConfig",
    "HydraSession",
]
