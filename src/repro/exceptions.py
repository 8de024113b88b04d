"""Exception hierarchy for the repro (Hydra reproduction) package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError``, ``ValueError`` from user
code) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AutogradError(ReproError):
    """Raised for invalid autograd usage (e.g. backward on a non-scalar)."""


class ShapeError(ReproError):
    """Raised when tensor shapes are incompatible for an operation."""


class ConfigurationError(ReproError):
    """Raised when a model, device, or scheduler configuration is invalid."""


class PartitionError(ReproError):
    """Raised when a model cannot be partitioned under the given constraints."""


class SchedulingError(ReproError):
    """Raised when a schedule cannot be constructed or executed."""


class OutOfDeviceMemoryError(SchedulingError):
    """Raised when a placement would exceed a simulated device's memory."""

    def __init__(self, device_name: str, requested_bytes: int, available_bytes: int):
        self.device_name = device_name
        self.requested_bytes = requested_bytes
        self.available_bytes = available_bytes
        super().__init__(
            f"device {device_name!r}: requested {requested_bytes} bytes but only "
            f"{available_bytes} bytes are free"
        )


class MemoryBudgetError(SchedulingError):
    """Raised when the spill manager cannot satisfy a residency request.

    Either a shard is larger than its device's entire arena, or every other
    occupant of the arena is pinned and the acquire timed out waiting for
    capacity (which would otherwise deadlock silently).
    """


class SimulationError(ReproError):
    """Raised when the discrete-event simulator reaches an invalid state."""


class SearchSpaceError(ReproError):
    """Raised for invalid model-selection search-space definitions."""


class CheckpointError(ReproError):
    """Raised when saving or restoring a checkpoint fails."""


class WorkerCrashedError(ReproError):
    """Raised when a pool's child worker process died mid-task.

    The process-backed :class:`~repro.runtime.pool.ProcessWorkerPool`
    raises this for the task that was in flight when its child exited
    (SIGKILL, OOM, interpreter crash); only that task fails — the slot
    respawns a fresh child for the next one, and the usual
    :class:`~repro.runtime.pool.RetryPolicy` applies.
    """


class ServingError(ReproError):
    """Base class for online-inference (``repro.serving``) failures."""


class ServerOverloadedError(ServingError):
    """Raised when a request is rejected by bounded-queue admission control.

    The server's queue is at capacity; the client should back off and retry
    (closed-loop load generators count these as rejections).
    """


class RequestTimeoutError(ServingError):
    """Raised when a request misses its deadline before a response lands.

    Either the request expired while queued (the server drops it without
    running inference) or the caller's ``result(timeout=...)`` wait ran out.
    """
