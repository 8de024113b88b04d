"""Model sharding: splitting a model's block sequence into device-sized shards."""

from repro.sharding.shard import ModelShard
from repro.sharding.plan import ShardingPlan
from repro.sharding.partitioner import (
    partition_uniform,
    partition_min_max,
    partition_by_memory_limit,
    make_plan,
)
from repro.sharding.validation import validate_plan
from repro.sharding.order import batch_order, staggered_device

__all__ = [
    "ModelShard",
    "ShardingPlan",
    "partition_uniform",
    "partition_min_max",
    "partition_by_memory_limit",
    "make_plan",
    "validate_plan",
    "batch_order",
    "staggered_device",
]
