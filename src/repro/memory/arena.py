"""Per-device byte arenas: the memory ledgers spilled execution runs against.

A :class:`DeviceArena` is the real-engine counterpart of the simulator's
``cluster.Device`` ledger: a named byte budget with keyed allocations and
peak tracking.  The :class:`~repro.memory.spill.SpillManager` charges shard
residency here; nothing in this module knows about shards or tensors.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.exceptions import ConfigurationError, MemoryBudgetError


class DeviceArena:
    """A thread-safe byte ledger for one device's memory budget.

    Allocations are keyed so the same logical object cannot be
    double-charged and releases name exactly what they free — the same
    discipline as the simulator's device ledger.
    """

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"arena {name!r}: capacity must be positive, got {capacity_bytes}"
            )
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.peak_bytes = 0
        self._allocations: Dict[str, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        """Bytes currently charged to the arena."""
        with self._lock:
            return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        """Bytes still available under the budget."""
        return self.capacity_bytes - self.used_bytes

    def allocate(self, key: str, num_bytes: int) -> None:
        """Charge ``num_bytes`` under ``key``; raises when over budget.

        Raises :class:`~repro.exceptions.MemoryBudgetError` when the arena
        cannot fit the allocation, and :class:`ConfigurationError` on a
        duplicate key or negative size.
        """
        if num_bytes < 0:
            raise ConfigurationError(f"allocation size must be non-negative, got {num_bytes}")
        with self._lock:
            if key in self._allocations:
                raise ConfigurationError(f"allocation key {key!r} already present on {self.name}")
            if num_bytes > self.free_bytes:
                raise MemoryBudgetError(
                    f"arena {self.name!r}: requested {num_bytes} bytes but only "
                    f"{self.free_bytes} of {self.capacity_bytes} are free"
                )
            self._allocations[key] = int(num_bytes)
            used = sum(self._allocations.values())
            if used > self.peak_bytes:
                self.peak_bytes = used

    def release(self, key: str) -> int:
        """Free the allocation under ``key`` and return its size."""
        with self._lock:
            if key not in self._allocations:
                raise ConfigurationError(f"no allocation named {key!r} on arena {self.name}")
            return self._allocations.pop(key)

    def __repr__(self) -> str:
        return f"DeviceArena({self.name}, {self.used_bytes}/{self.capacity_bytes} bytes)"
