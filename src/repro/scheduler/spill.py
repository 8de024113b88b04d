"""Spill-aware scheduling: admit over-memory jobs by host-offloading shards.

:func:`spill_aware_placement` is the planning half: it decides, per shard,
both *where it computes* (a device, like any placement) and *whether it is
resident* there.  Shards that fit stay resident exactly as in
:func:`~repro.scheduler.placement.memory_aware_placement`; shards that
don't become **spilled** — their parameters and optimizer state live in
host DRAM and move over the interconnect around each pass.  A job is only
rejected when even a single shard's working set exceeds a device, so
workloads that :func:`~repro.scheduler.placement.plan_waves` would
serialize into waves (or reject outright) run at full task parallelism.

:class:`SpilledShardParallelStrategy` turns that into a plan: the ordinary
shard-parallel wave plus the spilled set and a host endpoint.  Lowering
(:meth:`repro.scheduler.plan.SchedulePlan.lower`) then adds, for every
spilled shard and batch, explicit ``spill-fetch`` / ``spill-writeback``
transfer tasks on the ``host`` endpoint, so they appear on the trace
timeline in their own lane and *overlap* device compute (utilization
accounting includes the transfer time); the spilled shard's resident bytes
are charged to the device ledger only for the duration of each pass, which
is what lets the over-memory workload fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.exceptions import SchedulingError
from repro.scheduler.placement import (
    Placement,
    ShardKey,
    round_robin_placement,
)
from repro.scheduler.plan import HOST_DEVICE_NAME, SchedulePlan
from repro.scheduler.shard_parallel import ShardParallelStrategy
from repro.scheduler.task import TrainingJob
from repro.sharding.shard import ModelShard


@dataclass
class SpillPlan:
    """A placement plus the set of shards that execute spilled."""

    placement: Placement
    spilled: Set[ShardKey] = field(default_factory=set)
    host_device: str = HOST_DEVICE_NAME

    def is_spilled(self, model_id: str, shard_index: int) -> bool:
        """Whether the shard's parameters live on the host between passes."""
        return (model_id, shard_index) in self.spilled

    @property
    def num_spilled(self) -> int:
        """How many shards execute spilled."""
        return len(self.spilled)


def spill_aware_placement(jobs: Sequence[TrainingJob], cluster: Cluster) -> SpillPlan:
    """Place every shard, marking the overflow as spilled instead of failing.

    Compute placement comes first: the staggered round-robin that makes
    shard parallelism interleave well
    (:func:`~repro.scheduler.placement.round_robin_placement` — the layout
    :class:`~repro.scheduler.shard_parallel.ShardParallelStrategy` prefers).
    Then, per device, the *residency* decision: shards stay resident in
    descending resident-byte order for as long as the device can hold

    ``Σ resident bytes of residents + largest spilled resident bytes (one
    transient slot) + Σ activation bytes of all assigned shards ≤ capacity``

    — the transient slot is what a spilled shard occupies during one of its
    passes (passes are serialized by device exclusivity, so one slot
    suffices), and activations stay on the device between forward and
    backward regardless of spilling.  Keeping the biggest shards resident
    minimises bytes moved per batch.

    Planning charges no ledger: the executor charges the resident shards
    and, during simulation, the spill traffic.  Raises
    :class:`~repro.exceptions.SchedulingError` when even full spilling
    cannot admit a device's assignment — its largest shard plus the
    assigned activations exceed the device.
    """
    placement = round_robin_placement(jobs, cluster, stagger=True, charge_memory=False)
    spilled: Set[ShardKey] = set()
    assigned: Dict[str, List[Tuple[str, ModelShard]]] = {
        name: [] for name in cluster.device_names()
    }
    for job in jobs:
        for shard in job.plan.shards:
            device_name = placement.device_for(job.model_id, shard.index)
            assigned[device_name].append((job.model_id, shard))

    for device_name, shard_list in assigned.items():
        if not shard_list:
            continue
        device = cluster.device(device_name)
        activation_total = sum(shard.activation_bytes for _, shard in shard_list)
        budget = device.free_bytes - activation_total
        ordered = sorted(
            shard_list, key=lambda item: (-item[1].resident_bytes, item[0], item[1].index)
        )
        resident_sum = 0
        for position, (model_id, shard) in enumerate(ordered):
            remaining = ordered[position + 1:]
            slot = max((s.resident_bytes for _, s in remaining), default=0)
            if resident_sum + shard.resident_bytes + slot <= budget:
                resident_sum += shard.resident_bytes
            else:
                spilled.update((mid, s.index) for mid, s in ordered[position:])
                # Even fully spilled, the device must transiently hold its
                # largest remaining shard next to the batch's activations.
                slot = shard.resident_bytes
                if resident_sum + slot > budget:
                    raise SchedulingError(
                        f"shard {model_id}/shard{shard.index} needs {slot} "
                        f"resident bytes during its passes next to "
                        f"{activation_total} bytes of activations on "
                        f"{device_name}, which exceeds the device even with "
                        f"host spilling"
                    )
                break
    return SpillPlan(placement=placement, spilled=spilled)


class SpilledShardParallelStrategy(ShardParallelStrategy):
    """Hydra's interleaving with host offload: one wave, no matter the memory.

    Where :class:`~repro.scheduler.shard_parallel.ShardParallelStrategy`
    serializes over-memory workloads into waves, this strategy admits them
    all at once via :func:`spill_aware_placement` and models the spill
    traffic explicitly (see the module docstring).  For workloads that fit,
    the spilled set is empty and behaviour matches a single best-fit wave.
    """

    name = "spilled-shard-parallel"

    def plan(self, jobs: List[TrainingJob], cluster: Cluster) -> SchedulePlan:
        spill_plan = spill_aware_placement(jobs, cluster)
        return SchedulePlan(
            [self._wave(jobs, spill_plan.placement)],
            spilled=spill_plan.spilled,
            host_device=spill_plan.host_device,
        )
