"""Plan validation against device constraints."""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.exceptions import PartitionError
from repro.sharding.plan import ShardingPlan

if TYPE_CHECKING:  # annotation only: importing repro.sharding must not load the simulator
    from repro.cluster.device import DeviceSpec


def validate_plan(plan: ShardingPlan, device_spec: DeviceSpec, strict: bool = True) -> List[str]:
    """Check that every shard of ``plan`` fits on a device of type ``device_spec``.

    Returns a list of human-readable problems.  With ``strict=True`` (the
    default) a non-empty problem list raises :class:`PartitionError` instead.
    """
    problems: List[str] = []
    for shard in plan.shards:
        if shard.working_bytes > device_spec.memory_bytes:
            problems.append(
                f"{shard.shard_id}: needs {shard.working_bytes / 2**30:.2f} GiB but "
                f"{device_spec.name} has {device_spec.memory_bytes / 2**30:.2f} GiB"
            )
    covered = sum(stop - start for start, stop in plan.boundaries)
    if covered != len(plan.profile):
        problems.append(
            f"plan covers {covered} blocks but the model has {len(plan.profile)}"
        )
    if strict and problems:
        raise PartitionError("; ".join(problems))
    return problems
