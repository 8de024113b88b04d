"""Simulated accelerator devices.

A :class:`DeviceSpec` captures the two quantities the experiments depend on:
memory capacity (which forces model parallelism for large models) and
sustained compute throughput (which converts FLOPs into simulated seconds).
The ``v100-16gb`` preset mirrors the paper's testbed of 16 GB Tesla V100s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.exceptions import ConfigurationError, OutOfDeviceMemoryError

GIB = 1024 ** 3


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of an accelerator.

    ``flops_per_second`` is the *sustained* (not peak) throughput used to
    convert work into time; 14 TFLOP/s is a reasonable sustained fp32+tensor
    mix for V100 training workloads.
    """

    name: str
    memory_bytes: int
    flops_per_second: float
    kind: str = "gpu"

    def compute_time(self, flops: float) -> float:
        """Seconds needed to execute ``flops`` at sustained throughput."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return flops / self.flops_per_second


#: catalogue of well-known accelerators (memory, sustained FLOP/s)
GPU_PRESETS: Dict[str, DeviceSpec] = {
    "v100-16gb": DeviceSpec("v100-16gb", memory_bytes=16 * GIB, flops_per_second=14e12),
    "v100-32gb": DeviceSpec("v100-32gb", memory_bytes=32 * GIB, flops_per_second=14e12),
    "k80-12gb": DeviceSpec("k80-12gb", memory_bytes=12 * GIB, flops_per_second=4e12),
    "a100-40gb": DeviceSpec("a100-40gb", memory_bytes=40 * GIB, flops_per_second=60e12),
    "cpu-host": DeviceSpec("cpu-host", memory_bytes=256 * GIB, flops_per_second=0.5e12, kind="cpu"),
}


class Device:
    """A device instance with a mutable memory ledger.

    Allocations are keyed so that the same logical object (e.g. the
    parameters of shard 2 of model 7) cannot be double-charged, and so
    releases can name exactly what they free.
    """

    def __init__(self, spec: DeviceSpec, name: str | None = None):
        self.spec = spec
        self.name = name if name is not None else spec.name
        self._allocations: Dict[str, int] = {}
        self.peak_bytes = 0

    # ------------------------------------------------------------------ #
    # Memory ledger
    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self.used_bytes

    def allocate(self, key: str, num_bytes: int) -> None:
        """Charge ``num_bytes`` under ``key``; raises if the device is full."""
        if num_bytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {num_bytes}")
        if key in self._allocations:
            raise ConfigurationError(f"allocation key {key!r} already present on {self.name}")
        if num_bytes > self.free_bytes:
            raise OutOfDeviceMemoryError(self.name, num_bytes, self.free_bytes)
        self._allocations[key] = int(num_bytes)
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def release(self, key: str) -> int:
        """Free the allocation under ``key`` and return its size."""
        if key not in self._allocations:
            raise ConfigurationError(f"no allocation named {key!r} on device {self.name}")
        return self._allocations.pop(key)

    def holds(self, key: str) -> bool:
        return key in self._allocations

    def reset(self) -> None:
        """Clear all allocations and peak tracking (between experiments)."""
        self._allocations.clear()
        self.peak_bytes = 0

    # ------------------------------------------------------------------ #
    def compute_time(self, flops: float) -> float:
        return self.spec.compute_time(flops)

    def __repr__(self) -> str:
        used_gib = self.used_bytes / GIB
        total_gib = self.spec.memory_bytes / GIB
        return f"Device({self.name}, {used_gib:.2f}/{total_gib:.0f} GiB used)"
