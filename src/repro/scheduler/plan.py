"""A schedule as a value: what a strategy decides, before anything runs it.

A strategy's whole contribution is a :class:`SchedulePlan` — which jobs run
together (:class:`Wave`), each wave's :class:`~repro.scheduler.task.ShardTask`
graph and :class:`~repro.scheduler.placement.Placement`, any ordering edges
beyond the intrinsic training dependencies, task priorities, which shards
live in host memory, and how memory is accounted.  The one executor,
:meth:`repro.scheduler.base.Strategy.schedule`, lowers a plan to simulator
tasks with :meth:`SchedulePlan.lower` and runs it; nothing in a plan depends
on the simulator, so another executor can run the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.device import Device
from repro.cluster.simulator import SimTask
from repro.scheduler.placement import Placement, ShardKey
from repro.scheduler.task import ShardTask, TaskKind, TrainingJob, task_id_for

#: name of the host-memory endpoint a spilling plan adds to the cluster
HOST_DEVICE_NAME = "host"


@dataclass
class Wave:
    """Jobs that occupy the cluster together; a plan's waves run back to back."""

    jobs: List[TrainingJob]
    tasks: List[ShardTask]
    placement: Placement
    #: ordering edges beyond the tasks' own ``deps`` (task id -> prerequisites)
    extra_deps: Dict[str, List[str]] = field(default_factory=dict)
    #: per-task priority exposed to the policy as ``tags["priority"]``
    priorities: Optional[Dict[str, float]] = None


@dataclass
class SchedulePlan:
    """Everything a strategy decides about a run (see the module docstring)."""

    waves: List[Wave]
    #: charge each forward's activations to the device ledger until its backward
    track_activation_memory: bool = True
    #: analytic per-device peak memory.  When set, the executor bypasses the
    #: device ledgers (no resident charges) and reports these numbers instead
    peak_memory_bytes: Optional[Dict[str, int]] = None
    #: shards whose parameters live on the host between passes
    spilled: Set[ShardKey] = field(default_factory=set)
    #: host endpoint spill traffic runs on; ``None`` = the plan never spills
    host_device: Optional[str] = None

    def lower(self, wave: Wave, host: Optional[Device] = None) -> List[SimTask]:
        """Pin each of ``wave``'s tasks to its placed device as a :class:`SimTask`.

        Attaches the activation/gradient transfer implied by the placement,
        the activation ledger effects, the wave's extra edges and priorities
        — and, for spilled shards, the host traffic (``host`` is the endpoint
        device the executor added for :attr:`host_device`).
        """
        placement = wave.placement
        sim_tasks: List[SimTask] = []
        for task in wave.tasks:
            transfers = []
            if task.input_bytes > 0:
                if task.kind == TaskKind.FORWARD and task.shard_index > 0:
                    src = placement.device_for(task.model_id, task.shard_index - 1)
                    transfers.append((src, task.input_bytes))
                elif task.kind == TaskKind.BACKWARD:
                    src = placement.device_for(task.model_id, task.shard_index + 1)
                    transfers.append((src, task.input_bytes))
            transfers.extend(task.extra_transfers)
            allocations = []
            releases = []
            if self.track_activation_memory and task.activation_bytes > 0:
                activation_key = (
                    f"{task.model_id}/shard{task.shard_index}/activations"
                    f"/e{task.epoch}/b{task.batch_index}"
                )
                if task.kind == TaskKind.FORWARD:
                    allocations.append((activation_key, task.activation_bytes))
                elif task.kind == TaskKind.BACKWARD:
                    releases.append(activation_key)
            tags = {
                "model": task.model_id,
                "job": task.job_id if task.job_id is not None else task.model_id,
                "shard": task.shard_index,
                "kind": task.kind.value,
                "epoch": task.epoch,
                "batch": task.batch_index,
            }
            if wave.priorities is not None:
                tags["priority"] = wave.priorities.get(task.task_id, 0.0)
            sim_tasks.append(
                SimTask(
                    task_id=task.task_id,
                    device=placement.device_for(task.model_id, task.shard_index),
                    compute_flops=task.flops,
                    input_transfers=transfers,
                    memory_allocations=allocations,
                    memory_releases=releases,
                    deps=list(task.deps) + list(wave.extra_deps.get(task.task_id, [])),
                    tags=tags,
                )
            )
        if self.spilled:
            sim_tasks += self._spill_traffic(sim_tasks, wave, host)
        return sim_tasks

    def _spill_traffic(
        self, sim_tasks: List[SimTask], wave: Wave, host: Device
    ) -> List[SimTask]:
        """Host-lane transfer tasks for ``wave``'s spilled shards.

        Per spilled shard and mini-batch: a ``spill-fetch`` before the
        forward, another before the backward (the shard is dropped after its
        forward), and a ``spill-writeback`` after the update.  They run on
        the host endpoint, so they overlap device compute.  The shard's own
        passes in ``sim_tasks`` are edited in place: each waits for its fetch
        and charges the shard's resident bytes to the device ledger only
        while it runs (allocated at task start, released at task end) —
        device exclusivity never stacks two passes, so at most one spilled
        shard's bytes are charged per device, which is exactly the single
        transient slot :func:`~repro.scheduler.spill.spill_aware_placement`
        budgeted.
        """
        by_id = {task.task_id: task for task in sim_tasks}
        passes = (TaskKind.FORWARD, TaskKind.BACKWARD, TaskKind.UPDATE)
        extra: List[SimTask] = []
        for job in wave.jobs:
            for shard in job.plan.shards:
                if (job.model_id, shard.index) not in self.spilled:
                    continue
                device_name = wave.placement.device_for(job.model_id, shard.index)
                moved = shard.resident_bytes
                # Host DRAM holds the spilled shard for the whole run.
                host.allocate(f"spill/{job.model_id}/shard{shard.index}", moved)
                previous_writeback = None
                for epoch in range(job.num_epochs):
                    for batch in range(job.batches_per_epoch):
                        forward, backward, update = (
                            by_id[task_id_for(job.model_id, epoch, batch, shard.index, kind)]
                            for kind in passes
                        )
                        tags = {
                            "model": job.model_id, "job": job.model_id,
                            "shard": shard.index, "epoch": epoch, "batch": batch,
                        }

                        def transfer(after: SimTask, kind: str, deps: Sequence[str]) -> SimTask:
                            # The bytes ride as input_transfers, so the trace
                            # attributes the whole duration to transfer_seconds.
                            return SimTask(
                                task_id=f"{after.task_id}/{kind}",
                                device=self.host_device,
                                input_transfers=[(device_name, moved)],
                                deps=list(deps),
                                tags={**tags, "kind": kind},
                            )

                        fetch_fwd = transfer(
                            forward, "spill-fetch",
                            [previous_writeback] if previous_writeback else [],
                        )
                        fetch_bwd = transfer(backward, "spill-fetch", [forward.task_id])
                        writeback = transfer(update, "spill-writeback", [update.task_id])
                        extra += [fetch_fwd, fetch_bwd, writeback]
                        for pass_task in (forward, backward, update):
                            resident = f"{pass_task.task_id}/spill-resident"
                            pass_task.memory_allocations.append((resident, moved))
                            pass_task.memory_releases.append(resident)
                        forward.deps.append(fetch_fwd.task_id)
                        backward.deps.append(fetch_bwd.task_id)
                        update.deps.append(fetch_bwd.task_id)
                        previous_writeback = writeback.task_id
        return extra
