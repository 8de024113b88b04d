"""The three baselines that never interleave models on a device.

* :class:`SingleDeviceStrategy` — everything on one GPU, one model after
  another: the reference point of the paper's small-model accuracy
  experiment, and infeasible for a model whose working set exceeds the
  device (precisely the motivation for model parallelism).
* :class:`TaskParallelStrategy` — one whole model per GPU at a time, the
  regime of Ray Tune / Vizier style model selection.  Parallelises perfectly
  across models but cannot train a larger-than-device model and leaves
  devices idle once their queue drains (the "tail" of Figure 2).
* :class:`ModelParallelStrategy` — classic model parallelism, the regime
  Figure 1 criticises: each model's shards are spread over the GPUs, but
  passes are sequential and models train strictly one after another, so at
  any instant at most one device is busy.

They are one plan with two rules swapped: which device a shard computes on,
and which jobs queue behind each other.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.cluster.cluster import Cluster
from repro.exceptions import SchedulingError
from repro.scheduler.base import Strategy
from repro.scheduler.placement import Placement
from repro.scheduler.plan import SchedulePlan, Wave
from repro.scheduler.task import ShardTask, TrainingJob, build_task_graph

GIB = 2 ** 30


class _SequentialStrategy(Strategy):
    """Whole jobs queue behind each other; memory is accounted analytically."""

    #: message for a job whose demand on one device exceeds it; formatted with
    #: ``model``, ``device``, ``need`` and ``have`` (the last two in GiB)
    infeasible: str

    def _devices(self, cluster: Cluster) -> List[str]:
        """Names of the devices this strategy computes on."""
        return cluster.device_names()

    def _device_of(self, job_index: int, shard_index: int, num_devices: int) -> int:
        """Device-assignment rule: index into :meth:`_devices`."""
        raise NotImplementedError

    def _queue_of(self, job_index: int, num_devices: int) -> Hashable:
        """Chaining rule: jobs with equal keys run strictly one after another."""
        return None

    def plan(self, jobs: List[TrainingJob], cluster: Cluster) -> SchedulePlan:
        devices = self._devices(cluster)
        placement = Placement()
        peak_demand: Dict[str, int] = {name: 0 for name in devices}
        tasks: List[ShardTask] = []
        extra_deps: Dict[str, List[str]] = {}
        queue_tail: Dict[Hashable, List[ShardTask]] = {}
        for job_index, job in enumerate(jobs):
            demand: Dict[str, int] = {}
            for shard in job.plan.shards:
                name = devices[self._device_of(job_index, shard.index, len(devices))]
                placement.assign(job.model_id, shard.index, name)
                demand[name] = demand.get(name, 0) + shard.working_bytes
            for name, need in demand.items():
                have = cluster.device(name).spec.memory_bytes
                if need > have:
                    raise SchedulingError(self.infeasible.format(
                        model=job.model_id, device=name, need=need / GIB, have=have / GIB
                    ))
                peak_demand[name] = max(peak_demand[name], need)
            job_tasks = build_task_graph(job)
            queue = self._queue_of(job_index, len(devices))
            if queue in queue_tail:
                # The job's first task (the rest follow it transitively) waits
                # for every terminal task of its predecessor — those no other
                # task depends on, e.g. the final batch's per-shard updates.
                previous = queue_tail[queue]
                depended_upon = {dep for task in previous for dep in task.deps}
                extra_deps[job_tasks[0].task_id] = [
                    task.task_id for task in previous if task.task_id not in depended_upon
                ]
            queue_tail[queue] = job_tasks
            tasks.extend(job_tasks)
        return SchedulePlan(
            [Wave(jobs, tasks, placement, extra_deps=extra_deps)],
            track_activation_memory=False,
            peak_memory_bytes=peak_demand,
        )


class SingleDeviceStrategy(_SequentialStrategy):
    """Everything on one device, one model after another."""

    name = "single-device"
    infeasible = (
        "model {model!r} needs {need:.2f} GiB but device {device!r} has {have:.2f} GiB; "
        "single-device training is infeasible (this is the case that motivates "
        "model parallelism)"
    )

    def __init__(self, device_name: str | None = None, policy=None):
        super().__init__(policy=policy)
        self.device_name = device_name

    def _devices(self, cluster: Cluster) -> List[str]:
        device = cluster.device(self.device_name) if self.device_name else cluster.devices[0]
        return [device.name]

    def _device_of(self, job_index: int, shard_index: int, num_devices: int) -> int:
        return 0


class TaskParallelStrategy(_SequentialStrategy):
    """Round-robin whole models across devices; serialise models sharing a device."""

    name = "task-parallel"
    infeasible = (
        "task parallelism cannot train model {model!r}: it needs {need:.2f} GiB on a "
        "single device but {device!r} has {have:.2f} GiB — the model must be sharded"
    )

    def _device_of(self, job_index: int, shard_index: int, num_devices: int) -> int:
        return job_index % num_devices

    def _queue_of(self, job_index: int, num_devices: int) -> Hashable:
        return job_index % num_devices


class ModelParallelStrategy(_SequentialStrategy):
    """Shard every model across all devices; train models sequentially."""

    name = "model-parallel"
    infeasible = (
        "model {model!r}: shards assigned to {device!r} need {need:.2f} GiB; "
        "increase the shard count"
    )

    def _device_of(self, job_index: int, shard_index: int, num_devices: int) -> int:
        return shard_index % num_devices
