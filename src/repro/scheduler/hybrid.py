"""Hybrid shard + data parallelism (the Cerebro integration of §4.1).

Cerebro keeps data partitions pinned to workers and *hops models* between
workers so every model sees every partition once per epoch without moving
training data.  The hybrid strategy combines that idea with Hydra's shard
parallelism:

* the cluster's devices are divided into ``num_groups`` equally sized groups,
  each large enough to host one sharded model;
* each epoch is split into ``num_groups`` sub-epochs; in sub-epoch ``s``,
  model ``m`` trains on the data partition owned by group ``(m + s) mod G``;
* moving a model between groups at a sub-epoch boundary pays the cost of
  transferring its parameters over the interconnect (data never moves);
* within a group and sub-epoch, execution is shard-parallel: ready shard
  tasks of whichever models currently sit on the group interleave freely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.exceptions import SchedulingError
from repro.scheduler.base import Strategy
from repro.scheduler.placement import Placement
from repro.scheduler.plan import SchedulePlan, Wave
from repro.scheduler.policies import backward_first_policy
from repro.scheduler.task import ShardTask, TaskKind, TrainingJob, build_task_graph


class HybridShardDataParallelStrategy(Strategy):
    """Cerebro-style model hopping over groups of devices, shard-parallel within a group."""

    name = "hybrid-shard-data-parallel"

    def __init__(self, num_groups: Optional[int] = None, policy=None):
        super().__init__(policy=policy if policy is not None else backward_first_policy)
        self.num_groups = num_groups

    # ------------------------------------------------------------------ #
    def plan(self, jobs: List[TrainingJob], cluster: Cluster) -> SchedulePlan:
        max_shards = max(job.num_shards for job in jobs)
        num_devices = len(cluster)
        if max_shards > num_devices:
            raise SchedulingError(
                f"a job uses {max_shards} shards but the cluster only has {num_devices} devices"
            )
        num_groups = self.num_groups
        if num_groups is None:
            num_groups = max(1, num_devices // max_shards)
        group_size = num_devices // num_groups
        if group_size == 0:
            raise SchedulingError(
                f"num_groups={num_groups} is larger than the device count {num_devices}"
            )
        if group_size < max_shards:
            raise SchedulingError(
                f"groups of {group_size} devices cannot host {max_shards}-shard models; "
                "reduce num_groups or the shard count"
            )
        device_names = cluster.device_names()
        groups: List[List[str]] = [
            device_names[g * group_size:(g + 1) * group_size] for g in range(num_groups)
        ]

        placement = Placement()
        all_tasks: List[ShardTask] = []
        extra_deps: Dict[str, List[str]] = {}
        # Analytic estimate: a device hosts one shard of one model at a time.
        group_demand = self._group_demand(jobs)
        peak_demand: Dict[str, int] = {name: 0 for name in device_names}

        for model_index, job in enumerate(jobs):
            chunk_sizes = self._split_batches(job.batches_per_epoch, num_groups)
            previous_last_task: Dict[int, str] = {}
            previous_group: Optional[int] = None
            for epoch in range(job.num_epochs):
                for sub_epoch, chunk in enumerate(chunk_sizes):
                    if chunk == 0:
                        continue
                    group_index = (model_index + sub_epoch) % num_groups
                    group_devices = groups[group_index]
                    chunk_id = f"{job.model_id}@e{epoch}p{sub_epoch}"
                    chunk_job = TrainingJob(
                        model_id=chunk_id,
                        plan=job.plan,
                        num_epochs=1,
                        batches_per_epoch=chunk,
                        samples_per_batch=job.samples_per_batch,
                    )
                    chunk_tasks = build_task_graph(chunk_job)
                    for task in chunk_tasks:
                        # Chunks carry their own model id (placement moves
                        # with them); the work still belongs to ``job``.
                        task.job_id = job.model_id
                    for shard in job.plan.shards:
                        device_name = group_devices[shard.index % len(group_devices)]
                        placement.assign(chunk_id, shard.index, device_name)
                        peak_demand[device_name] = group_demand
                    # Sequence this chunk after the model's previous chunk, and
                    # charge the parameter hop between groups.
                    if previous_last_task:
                        for task in chunk_tasks:
                            if task.kind == TaskKind.FORWARD and task.batch_index == 0:
                                prior = previous_last_task.get(task.shard_index)
                                if prior is not None:
                                    extra_deps.setdefault(task.task_id, []).append(prior)
                    if previous_group is not None and previous_group != group_index:
                        self._charge_model_hop(chunk_tasks, job, groups[previous_group])
                    last_by_shard: Dict[int, str] = {}
                    for task in chunk_tasks:
                        if task.kind == TaskKind.UPDATE:
                            last_by_shard[task.shard_index] = task.task_id
                    previous_last_task = last_by_shard
                    previous_group = group_index
                    all_tasks.extend(chunk_tasks)

        return SchedulePlan(
            [Wave(jobs, all_tasks, placement, extra_deps=extra_deps)],
            track_activation_memory=False,
            peak_memory_bytes=peak_demand,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _split_batches(batches_per_epoch: int, num_groups: int) -> List[int]:
        base, remainder = divmod(batches_per_epoch, num_groups)
        return [base + (1 if i < remainder else 0) for i in range(num_groups)]

    @staticmethod
    def _group_demand(jobs: Sequence[TrainingJob]) -> int:
        """Worst-case resident demand on one device of a group (analytic estimate)."""
        return max(shard.working_bytes for job in jobs for shard in job.plan.shards)

    @staticmethod
    def _charge_model_hop(
        chunk_tasks: List[ShardTask],
        job: TrainingJob,
        previous_group_devices: List[str],
    ) -> None:
        """Attach the parameter-transfer cost of hopping a model between groups.

        The hop is modelled as extra input bytes on the first forward task of
        each shard in the new chunk, sourced from the shard's previous device.
        """
        for task in chunk_tasks:
            if task.kind != TaskKind.FORWARD or task.batch_index != 0:
                continue
            shard = job.plan.shards[task.shard_index]
            source_device = previous_group_devices[task.shard_index % len(previous_group_devices)]
            task.extra_transfers.append((source_device, shard.param_bytes))
