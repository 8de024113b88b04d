"""Discrete-event execution of task graphs on a simulated cluster.

The simulator is deliberately generic: it executes :class:`SimTask` items —
each pinned to a device, with dependencies, transfer inputs, compute work,
and memory effects — and produces an :class:`ExecutionTrace`.  The scheduling
*strategies* in :mod:`repro.scheduler` decide placement and task priorities;
the simulator only enforces dependencies, device exclusivity, transfer
delays, and memory capacity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.trace import ExecutionTrace, TaskRecord
from repro.exceptions import SimulationError


@dataclass
class SimTask:
    """A unit of schedulable work pinned to one device.

    Attributes
    ----------
    task_id:
        Unique identifier.
    device:
        Name of the device this task must run on (strategies fix placement).
    compute_flops:
        Floating-point work; converted to seconds via the device spec.
    duration_seconds:
        Optional explicit duration overriding the FLOP-based estimate.
    input_transfers:
        ``(source_device, num_bytes)`` pairs; bytes arriving from a different
        device add interconnect transfer time before compute starts.
    memory_allocations / memory_releases:
        Keys (and sizes) charged to the device ledger at task start and
        released at task end — used for activation/buffer accounting.
    deps:
        Task ids that must complete before this task may start.
    tags:
        Free-form metadata (model id, shard index, pass kind, batch index)
        used by scheduling policies and by trace analysis.
    """

    task_id: str
    device: str
    compute_flops: float = 0.0
    duration_seconds: Optional[float] = None
    input_transfers: List[Tuple[str, int]] = field(default_factory=list)
    memory_allocations: List[Tuple[str, int]] = field(default_factory=list)
    memory_releases: List[str] = field(default_factory=list)
    deps: List[str] = field(default_factory=list)
    tags: Dict[str, object] = field(default_factory=dict)


#: a policy orders the ready tasks of one device; the first element runs next
PolicyFn = Callable[[str, List[SimTask]], SimTask]


def fifo_policy(device: str, ready: List[SimTask]) -> SimTask:
    """Run ready tasks in submission order (the default)."""
    return ready[0]


class ClusterSimulator:
    """Event-driven simulator for :class:`SimTask` graphs."""

    def __init__(self, cluster: Cluster, policy: Optional[PolicyFn] = None):
        self.cluster = cluster
        self.policy = policy if policy is not None else fifo_policy

    def run(self, tasks: Sequence[SimTask]) -> ExecutionTrace:
        """Execute ``tasks`` respecting dependencies; returns the trace.

        Raises :class:`SimulationError` on unknown devices, duplicate or
        missing task ids, or dependency cycles (detected as a deadlock).
        """
        tasks = list(tasks)
        by_id: Dict[str, SimTask] = {}
        for task in tasks:
            if task.task_id in by_id:
                raise SimulationError(f"duplicate task id {task.task_id!r}")
            if task.device not in self.cluster.device_names():
                raise SimulationError(
                    f"task {task.task_id!r} targets unknown device {task.device!r}"
                )
            by_id[task.task_id] = task

        dependents: Dict[str, List[str]] = {task_id: [] for task_id in by_id}
        unmet: Dict[str, int] = {}
        for task in tasks:
            for dep in task.deps:
                if dep not in by_id:
                    raise SimulationError(
                        f"task {task.task_id!r} depends on unknown task {dep!r}"
                    )
                dependents[dep].append(task.task_id)
            unmet[task.task_id] = len(task.deps)

        submission_order = {task.task_id: index for index, task in enumerate(tasks)}
        ready: Dict[str, List[SimTask]] = {name: [] for name in self.cluster.device_names()}
        for task in tasks:
            if unmet[task.task_id] == 0:
                ready[task.device].append(task)

        device_busy: Dict[str, bool] = {name: False for name in self.cluster.device_names()}
        running: List[Tuple[float, int, SimTask]] = []
        sequence = itertools.count()
        records: List[TaskRecord] = []
        completed = 0
        now = 0.0

        def try_start(device_name: str) -> None:
            if device_busy[device_name] or not ready[device_name]:
                return
            queue = ready[device_name]
            queue.sort(key=lambda t: submission_order[t.task_id])
            task = self.policy(device_name, queue)
            queue.remove(task)
            device = self.cluster.device(task.device)
            transfer = sum(
                self.cluster.transfer_time(num_bytes, src, task.device)
                for src, num_bytes in task.input_transfers
            )
            compute = (
                task.duration_seconds
                if task.duration_seconds is not None
                else device.compute_time(task.compute_flops)
            )
            for key, num_bytes in task.memory_allocations:
                device.allocate(key, num_bytes)
            start = now
            end = start + transfer + compute
            device_busy[device_name] = True
            heapq.heappush(running, (end, next(sequence), task))
            records.append(
                TaskRecord(
                    task_id=task.task_id,
                    device=task.device,
                    start=start,
                    end=end,
                    compute_seconds=compute,
                    transfer_seconds=transfer,
                    tags=dict(task.tags),
                )
            )

        for name in self.cluster.device_names():
            try_start(name)

        while completed < len(tasks):
            if not running:
                pending = [task_id for task_id, count in unmet.items() if count > 0]
                raise SimulationError(
                    "simulation deadlocked: no runnable tasks but "
                    f"{len(pending)} tasks still blocked (cycle in dependencies?)"
                )
            # Drain every completion that happens at this instant before
            # making new scheduling decisions, so policies see the full
            # ready set (keeps traces deterministic).
            now = running[0][0]
            while running and running[0][0] == now:
                _, _, task = heapq.heappop(running)
                completed += 1
                device = self.cluster.device(task.device)
                for key in task.memory_releases:
                    device.release(key)
                device_busy[task.device] = False
                for dependent_id in dependents[task.task_id]:
                    unmet[dependent_id] -= 1
                    if unmet[dependent_id] == 0:
                        dependent = by_id[dependent_id]
                        ready[dependent.device].append(dependent)
            for name in self.cluster.device_names():
                try_start(name)

        peak_memory = {d.name: d.peak_bytes for d in self.cluster.devices}
        return ExecutionTrace(
            device_names=self.cluster.device_names(),
            records=sorted(records, key=lambda r: (r.start, r.device)),
            peak_memory_bytes=peak_memory,
        )
