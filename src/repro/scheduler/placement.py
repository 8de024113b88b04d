"""Shard placement: deciding which device hosts each shard.

A placement maps ``(model_id, shard_index)`` to a device name and charges
that device's memory ledger with the shard's resident bytes (parameters +
optimizer state).  When the requested jobs do not all fit on the cluster at
once, :func:`plan_waves` groups them into sequential waves; for full task
parallelism despite the shortfall, see
:func:`repro.scheduler.spill.spill_aware_placement`, which keeps the
overflow in host memory instead of serialising it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.exceptions import SchedulingError
from repro.scheduler.task import TrainingJob
from repro.sharding.order import staggered_device
from repro.sharding.shard import ModelShard

ShardKey = Tuple[str, int]


@dataclass
class Placement:
    """Shard-to-device assignment for a set of jobs."""

    assignments: Dict[ShardKey, str] = field(default_factory=dict)

    def device_for(self, model_id: str, shard_index: int) -> str:
        key = (model_id, shard_index)
        if key not in self.assignments:
            raise SchedulingError(f"no placement for shard {model_id}/shard{shard_index}")
        return self.assignments[key]

    def assign(self, model_id: str, shard_index: int, device: str) -> None:
        self.assignments[(model_id, shard_index)] = device

    def shards_on(self, device: str) -> List[ShardKey]:
        return [key for key, name in self.assignments.items() if name == device]

    def devices_used(self) -> List[str]:
        return sorted(set(self.assignments.values()))

    def __len__(self) -> int:
        return len(self.assignments)


def _resident_key(model_id: str, shard: ModelShard) -> str:
    return f"{model_id}/shard{shard.index}/resident"


def charge_placement(
    jobs: Sequence[TrainingJob],
    cluster: Cluster,
    placement: Placement,
    skip: Collection[ShardKey] = (),
) -> None:
    """Charge every placed shard's resident bytes to its device's ledger.

    ``skip`` names shards that are placed but not resident (spilled to host
    memory).  :func:`release_placement` is the inverse.
    """
    for job in jobs:
        for shard in job.plan.shards:
            if (job.model_id, shard.index) not in skip:
                device_name = placement.device_for(job.model_id, shard.index)
                cluster.device(device_name).allocate(
                    _resident_key(job.model_id, shard), shard.resident_bytes
                )


def round_robin_placement(
    jobs: Sequence[TrainingJob],
    cluster: Cluster,
    stagger: bool = True,
    charge_memory: bool = True,
) -> Placement:
    """Assign shard ``i`` of job ``j`` to device ``(i + offset_j) mod D``.

    ``stagger=True`` offsets each job by its index
    (:func:`repro.sharding.order.staggered_device`, the rule the real
    trainer places by too) so that the first shards of different models land
    on different devices, spreading the early-pipeline load — this is the
    placement the shard-parallel strategy uses by default.
    """
    devices = cluster.device_names()
    placement = Placement()
    for job_index, job in enumerate(jobs):
        offset = job_index if stagger else 0
        for shard in job.plan.shards:
            slot = staggered_device(shard.index, offset, len(devices))
            placement.assign(job.model_id, shard.index, devices[slot])
    if charge_memory:
        charge_placement(jobs, cluster, placement)
    return placement


def memory_aware_placement(
    jobs: Sequence[TrainingJob],
    cluster: Cluster,
    charge_memory: bool = True,
) -> Placement:
    """Greedy best-fit placement: each shard goes to the device with the most free budget.

    Fit decisions budget each shard's *working* bytes (parameters + optimizer
    state + one in-flight batch of activations), which guarantees the
    simulator's dynamic activation allocations can never overflow a device:
    the task-graph dependencies allow at most one batch in flight per shard.
    Only the resident bytes are charged to the device ledger, because
    activations are charged dynamically during simulation.

    Shards are placed in descending size order so the big ones get first
    pick; ties break on device order for determinism.  Raises
    :class:`SchedulingError` if some shard fits nowhere.
    """
    placement = Placement()
    shards: List[Tuple[str, ModelShard]] = [
        (job.model_id, shard) for job in jobs for shard in job.plan.shards
    ]
    shards.sort(key=lambda item: item[1].working_bytes, reverse=True)
    budget: Dict[str, int] = {
        d.name: d.free_bytes for d in cluster.devices
    }
    for model_id, shard in shards:
        candidates = sorted(budget.items(), key=lambda kv: (-kv[1], kv[0]))
        device_name, available = candidates[0]
        if shard.working_bytes > cluster.device(device_name).spec.memory_bytes:
            raise SchedulingError(
                f"shard {model_id}/shard{shard.index} needs {shard.working_bytes} working bytes, "
                "more than any single device provides"
            )
        if shard.working_bytes > available:
            raise SchedulingError(
                f"cannot place shard {model_id}/shard{shard.index}: "
                f"needs {shard.working_bytes} bytes of budget but the emptiest device has {available}"
            )
        placement.assign(model_id, shard.index, device_name)
        budget[device_name] -= shard.working_bytes
    if charge_memory:
        charge_placement(jobs, cluster, placement)
    return placement


def release_placement(jobs: Sequence[TrainingJob], cluster: Cluster, placement: Placement) -> None:
    """Free the resident allocations :func:`charge_placement` made."""
    for job in jobs:
        for shard in job.plan.shards:
            device_name = placement.device_for(job.model_id, shard.index)
            key = _resident_key(job.model_id, shard)
            device = cluster.device(device_name)
            if device.holds(key):
                device.release(key)


def _unfit_job_error(job: TrainingJob, cluster: Cluster) -> SchedulingError:
    """Diagnose *why* a job cannot fit an empty cluster, naming the culprit.

    Points at the widest shard — either it alone exceeds every device, or
    the job's total working set exceeds the cluster — and suggests
    :func:`repro.scheduler.spill.spill_aware_placement` (the
    ``spilled-shard-parallel`` strategy), which admits such jobs by keeping
    idle shards in host memory instead of serialising or failing.
    """
    widest = max(job.plan.shards, key=lambda shard: shard.working_bytes)
    largest_device = max(d.spec.memory_bytes for d in cluster.devices)
    total_working = sum(shard.working_bytes for shard in job.plan.shards)
    if widest.working_bytes > largest_device:
        detail = (
            f"shard {widest.index} needs {widest.working_bytes} working bytes "
            f"but the largest device holds {largest_device}"
        )
    else:
        # Packing failed, not a single-shard overflow: either the total
        # exceeds the cluster or best-fit fragmentation leaves some shard
        # without a device — phrase it so both cases read true.
        detail = (
            f"its {job.plan.num_shards} shards ({total_working} working bytes "
            f"in total, largest: shard {widest.index} at "
            f"{widest.working_bytes}) cannot be packed onto the cluster's "
            f"devices ({cluster.total_memory_bytes} bytes across "
            f"{len(cluster)} devices)"
        )
    return SchedulingError(
        f"job {job.model_id!r} does not fit the cluster even when it runs "
        f"alone: {detail}; consider spill_aware_placement (the "
        f"'spilled-shard-parallel' strategy) to keep idle shards in host memory"
    )


def plan_waves(jobs: Sequence[TrainingJob], cluster: Cluster) -> List[List[TrainingJob]]:
    """Group jobs into waves such that each wave's resident shards fit the cluster.

    Jobs are considered in the given order; a job joins the current wave if
    its shards can be packed (best-fit by free memory) alongside the shards
    already in the wave, otherwise it starts the next wave.  A single job
    that cannot fit on the empty cluster raises a :class:`SchedulingError`
    naming the offending shard and pointing at
    :func:`~repro.scheduler.spill.spill_aware_placement`.
    """
    waves: List[List[TrainingJob]] = []
    current: List[TrainingJob] = []
    free: Dict[str, int] = {d.name: d.spec.memory_bytes for d in cluster.devices}

    def fits(job: TrainingJob, budget: Dict[str, int]) -> Optional[Dict[str, int]]:
        # Budget by working bytes (resident + one in-flight batch of
        # activations) so a wave that "fits" can also run without OOM.
        trial = dict(budget)
        for shard in sorted(job.plan.shards, key=lambda s: s.working_bytes, reverse=True):
            device_name = max(trial, key=lambda name: (trial[name], name))
            if shard.working_bytes > trial[device_name]:
                return None
            trial[device_name] -= shard.working_bytes
        return trial

    for job in jobs:
        attempt = fits(job, free)
        if attempt is None and current:
            # Close the wave and retry on the empty cluster.
            waves.append(current)
            current = []
            attempt = fits(job, {d.name: d.spec.memory_bytes for d in cluster.devices})
        if attempt is None:
            raise _unfit_job_error(job, cluster)
        current.append(job)
        free = attempt
    if current:
        waves.append(current)
    return waves
