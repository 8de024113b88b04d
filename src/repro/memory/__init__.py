"""Spilled execution: shard residency management with host offload.

Hydra's headline scenario — models larger than any one device, and more
models than aggregate device memory, trained at full task parallelism —
depends on *spilling*: idle shards (parameters + optimizer state) live in
host DRAM and move onto devices just in time.  This package is that
subsystem:

* :class:`DeviceArena` — a per-device byte ledger;
* :class:`HostShardCache` — the pinned host store for evicted shard
  payloads, with an optional disk tier in checkpoint format;
* :class:`SpillManager` — the residency state machine (resident → evicted →
  prefetching) with pluggable eviction (:class:`LRUEvictionPolicy`,
  :class:`ScheduleAwareEvictionPolicy`).  One constructor,
  ``SpillManager(budgets, policy=..., prefetch=...)``, builds the arenas,
  the host cache and, with ``prefetch=True``, the transfer worker that
  overlaps the next shard's fetch with the current shard's compute.

The real engines opt in through
``ShardedModelExecutor.bind_memory`` / ``ShardParallelTrainer(memory_manager=...)``
(or declaratively via ``ShardParallelBackend(memory_budget=...)``); the simulator
models the same behaviour through the ``spilled-shard-parallel`` strategy.
Spilled training is bit-identical to fully-resident training — restores put
the exact bytes back — which the memory tests enforce with ``array_equal``.
See ``docs/memory.md``.
"""

from repro.memory.arena import DeviceArena
from repro.memory.host_cache import HostShardCache
from repro.memory.spill import (
    EvictionPolicy,
    LRUEvictionPolicy,
    ResidencyState,
    ScheduleAwareEvictionPolicy,
    ShardResidency,
    SpillManager,
    SpillStats,
    make_eviction_policy,
)

__all__ = [
    "DeviceArena",
    "EvictionPolicy",
    "HostShardCache",
    "LRUEvictionPolicy",
    "ResidencyState",
    "ScheduleAwareEvictionPolicy",
    "ShardResidency",
    "SpillManager",
    "SpillStats",
    "make_eviction_policy",
]
