"""Shard-level task graphs.

Hydra's key move is to schedule at the granularity of *(model, shard, pass,
mini-batch)* tasks instead of whole models.  :func:`build_task_graph` turns a
:class:`TrainingJob` (a model's sharding plan plus its epoch/batch counts)
into exactly that task graph, with the dependencies that make sharded
training equivalent to unsharded training:

* forward of shard ``i`` needs forward of shard ``i-1`` (same batch);
* backward of shard ``i`` needs backward of shard ``i+1`` (same batch) and
  its own forward (for the stashed activations);
* the optimizer update of shard ``i`` needs that shard's backward;
* forward of shard ``i`` for batch ``b+1`` needs shard ``i``'s update for
  batch ``b`` (weights must be current — Hydra does not pipeline batches
  within one model).

Tasks of different models share no edges; that independence is the
parallelism the shard-parallel scheduler exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.exceptions import SchedulingError
from repro.sharding.order import LOSS, batch_order
from repro.sharding.plan import ShardingPlan

#: optimizer-update FLOPs per parameter (Adam: ~6 multiply-adds per scalar)
UPDATE_FLOPS_PER_PARAM = 6.0


class TaskKind(str, enum.Enum):
    """Pass direction of a shard task."""

    FORWARD = "forward"
    BACKWARD = "backward"
    UPDATE = "update"


@dataclass
class ShardTask:
    """One schedulable unit: a pass over one shard for one mini-batch.

    ``extra_transfers`` lists additional ``(source_device, bytes)`` inputs a
    strategy wants charged before the task runs (e.g. the hybrid strategy's
    parameter movement between device groups); the intrinsic
    activation/gradient transfer implied by ``input_bytes`` is derived from
    the placement instead.
    """

    task_id: str
    model_id: str
    shard_index: int
    kind: TaskKind
    epoch: int
    batch_index: int
    flops: float
    input_bytes: int
    output_bytes: int
    activation_bytes: int
    deps: List[str] = field(default_factory=list)
    extra_transfers: List[tuple] = field(default_factory=list)
    #: the job this task's work is accounted to, when a strategy runs a job
    #: as several sub-jobs under their own ``model_id`` (hybrid's chunks)
    job_id: Optional[str] = None

    @property
    def shard_key(self) -> str:
        return f"{self.model_id}/shard{self.shard_index}"


@dataclass
class TrainingJob:
    """One model's training assignment within a selection run."""

    model_id: str
    plan: ShardingPlan
    num_epochs: int = 1
    batches_per_epoch: int = 1
    samples_per_batch: int = 32

    def __post_init__(self) -> None:
        if self.num_epochs <= 0 or self.batches_per_epoch <= 0:
            raise SchedulingError(
                f"job {self.model_id!r}: epochs and batches per epoch must be positive"
            )

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def total_batches(self) -> int:
        return self.num_epochs * self.batches_per_epoch

    @property
    def total_samples(self) -> int:
        return self.total_batches * self.samples_per_batch


def task_id_for(model_id: str, epoch: int, batch: int, shard: int, kind: TaskKind) -> str:
    return f"{model_id}/e{epoch}/b{batch}/s{shard}/{kind.value}"


def build_task_graph(
    job: TrainingJob,
    include_updates: bool = True,
) -> List[ShardTask]:
    """Compile one job into its ordered list of :class:`ShardTask` items.

    Within a mini-batch the tasks follow
    :func:`repro.sharding.order.batch_order` — the same order the real
    engine executes — minus the loss, which the cost model folds into the
    final shard's forward.
    """
    shards = job.plan.shards
    last = len(shards) - 1
    order = [
        (TaskKind(kind), index)
        for kind, index in batch_order(len(shards), updates=include_updates)
        if kind != LOSS
    ]
    anchor = TaskKind.UPDATE if include_updates else TaskKind.BACKWARD
    tasks: List[ShardTask] = []
    prior: Optional[tuple] = None  # (epoch, batch) of the previous mini-batch
    for epoch in range(job.num_epochs):
        for batch in range(job.batches_per_epoch):
            tid = partial(task_id_for, job.model_id, epoch, batch)  # tid(shard, kind)
            for kind, index in order:
                shard = shards[index]
                if kind is TaskKind.FORWARD:
                    deps = [tid(index - 1, kind)] if index > 0 else []
                    if prior is not None:
                        # Weights must be current: no pipelining across batches.
                        deps.append(task_id_for(job.model_id, *prior, index, anchor))
                    flops, input_bytes = shard.forward_flops, shard.input_bytes
                    output_bytes, activation_bytes = shard.output_bytes, shard.activation_bytes
                elif kind is TaskKind.BACKWARD:
                    deps = [tid(index, TaskKind.FORWARD)]
                    if index < last:
                        deps.append(tid(index + 1, kind))
                    flops = shard.backward_flops
                    # The gradient flowing into this shard from downstream has
                    # the size of this shard's output activation.
                    input_bytes = shard.output_bytes if index < last else 0
                    output_bytes, activation_bytes = shard.input_bytes, shard.activation_bytes
                else:
                    deps = [tid(index, TaskKind.BACKWARD)]
                    flops = shard.param_count * UPDATE_FLOPS_PER_PARAM
                    input_bytes = output_bytes = activation_bytes = 0
                tasks.append(
                    ShardTask(
                        task_id=tid(index, kind),
                        model_id=job.model_id,
                        shard_index=index,
                        kind=kind,
                        epoch=epoch,
                        batch_index=batch,
                        flops=flops,
                        input_bytes=input_bytes,
                        output_bytes=output_bytes,
                        activation_bytes=activation_bytes,
                        deps=deps,
                    )
                )
            prior = (epoch, batch)
    return tasks


def build_task_graphs(jobs: Sequence[TrainingJob], include_updates: bool = True) -> List[ShardTask]:
    """Task graphs for several independent jobs, concatenated."""
    ids: Dict[str, TrainingJob] = {}
    for job in jobs:
        if job.model_id in ids:
            raise SchedulingError(f"duplicate model id {job.model_id!r} in job list")
        ids[job.model_id] = job
    tasks: List[ShardTask] = []
    for job in jobs:
        tasks.extend(build_task_graph(job, include_updates=include_updates))
    return tasks
