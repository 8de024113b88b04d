"""Shard parallelism — the Hydra scheduler, the paper's core contribution.

Every model is sharded; the shards of *all* models are placed across the
cluster together, and each device interleaves ready tasks from any model.
While one model's pipeline is blocked on a neighbouring shard, the device
works on another model's shard — which is exactly how the paper proposes to
remove the idling of classic model parallelism while keeping its memory
scalability.

If the resident footprint of every model does not fit the cluster at once,
jobs are grouped into sequential *waves* (each wave fits); waves execute one
after another, and each wave internally runs shard-parallel.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.cluster import Cluster
from repro.scheduler.base import Strategy
from repro.scheduler.placement import (
    Placement,
    memory_aware_placement,
    plan_waves,
    round_robin_placement,
)
from repro.scheduler.plan import SchedulePlan, Wave
from repro.scheduler.policies import critical_path_policy
from repro.scheduler.ranking import compute_upward_ranks
from repro.scheduler.task import TrainingJob, build_task_graph


class ShardParallelStrategy(Strategy):
    """Hydra: fine-grained interleaving of shard tasks from many models."""

    name = "shard-parallel"

    def __init__(self, policy=None):
        super().__init__(policy=policy if policy is not None else critical_path_policy)

    def plan(self, jobs: List[TrainingJob], cluster: Cluster) -> SchedulePlan:
        return SchedulePlan([
            self._wave(wave_jobs, self._place_wave(wave_jobs, cluster))
            for wave_jobs in plan_waves(jobs, cluster)
        ])

    @staticmethod
    def _wave(jobs: List[TrainingJob], placement: Placement) -> Wave:
        """The jobs' task graphs, free to interleave, ranked by critical path."""
        tasks = [task for job in jobs for task in build_task_graph(job)]
        return Wave(jobs, tasks, placement, priorities=compute_upward_ranks(tasks))

    @staticmethod
    def _place_wave(wave_jobs: Sequence[TrainingJob], cluster: Cluster) -> Placement:
        """Place one wave's shards (on the empty cluster every wave starts from).

        The *staggered round-robin* placement is used whenever it fits the
        per-device working-memory budget; otherwise placement falls back to
        greedy best-fit packing.
        """
        staggered = round_robin_placement(wave_jobs, cluster, stagger=True, charge_memory=False)
        demand = {name: 0 for name in cluster.device_names()}
        for job in wave_jobs:
            for shard in job.plan.shards:
                demand[staggered.device_for(job.model_id, shard.index)] += shard.working_bytes
        if all(demand[device.name] <= device.free_bytes for device in cluster.devices):
            return staggered
        return memory_aware_placement(wave_jobs, cluster, charge_memory=False)
