"""Strategy interface, the one plan executor, and the result types it reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.device import Device, GPU_PRESETS
from repro.cluster.simulator import ClusterSimulator, SimTask
from repro.cluster.trace import ExecutionTrace
from repro.exceptions import SchedulingError
from repro.scheduler.placement import Placement, charge_placement, release_placement
from repro.scheduler.plan import SchedulePlan
from repro.scheduler.task import TrainingJob


@dataclass
class ScheduleResult:
    """Outcome of scheduling a set of jobs under one strategy."""

    strategy: str
    trace: ExecutionTrace
    jobs: List[TrainingJob]
    placements: List[Placement] = field(default_factory=list)
    waves: int = 1
    #: ``(model_id, shard_index)`` keys the strategy executed spilled
    #: (host-resident between passes); empty for non-spilling strategies
    spilled_shards: List = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        return self.trace.makespan

    @property
    def cluster_utilization(self) -> float:
        return self.trace.utilization()

    @property
    def total_samples(self) -> int:
        return sum(job.total_samples for job in self.jobs)

    @property
    def throughput_samples_per_second(self) -> float:
        return self.trace.throughput(self.total_samples)

    def speedup_over(self, other: "ScheduleResult") -> float:
        """How much faster this schedule finished the same work than ``other``."""
        if self.makespan == 0:
            return float("inf")
        return other.makespan / self.makespan

    def summary(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "num_models": len(self.jobs),
            "makespan_seconds": self.makespan,
            "cluster_utilization": self.cluster_utilization,
            "throughput_samples_per_second": self.throughput_samples_per_second,
            "waves": self.waves,
            "spilled_shards": len(self.spilled_shards),
            "peak_memory_bytes": dict(self.trace.peak_memory_bytes),
        }

    def per_model_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-job timing carved out of the shared trace.

        For each scheduled job: when its tasks started and finished
        (``finish_seconds`` is the job's completion time on the shared
        cluster, ``span_seconds`` the window it was in flight), how long its
        tasks occupied devices, and its own sample throughput.  This is what
        lets a selection backend attribute a multi-model simulation back to
        individual trials.  Records are matched on their ``job`` tag — the
        owning job, which under the hybrid strategy is not the ``model`` tag
        (that names the chunk).
        """
        metrics: Dict[str, Dict[str, float]] = {}
        for job in self.jobs:
            records = self.trace.records_for(job=job.model_id)
            start = min(record.start for record in records)
            finish = max(record.end for record in records)
            span = finish - start
            busy = sum(record.duration for record in records)
            metrics[job.model_id] = {
                "start_seconds": start,
                "finish_seconds": finish,
                "span_seconds": span,
                "busy_seconds": busy,
                "throughput_samples_per_second": (
                    job.total_samples / span if span > 0 else 0.0
                ),
            }
        return metrics


@dataclass(frozen=True)
class StrategyOutcome:
    """Typed result of trying one strategy on a workload.

    Either ``result`` is set (the strategy scheduled the jobs) or
    ``skip_reason`` explains why it could not — e.g. classic task
    parallelism confronted with a larger-than-device model.  This replaces
    the old convention of storing ``None`` in a result dict.
    """

    strategy: str
    result: Optional[ScheduleResult] = None
    skip_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.result is None) == (self.skip_reason is None):
            raise ValueError(
                "StrategyOutcome needs exactly one of result / skip_reason"
            )

    @property
    def feasible(self) -> bool:
        return self.result is not None

    def unwrap(self) -> ScheduleResult:
        """The schedule result, or a loud error if the strategy was skipped."""
        if self.result is None:
            raise RuntimeError(
                f"strategy {self.strategy!r} was skipped: {self.skip_reason}"
            )
        return self.result


class Strategy:
    """Base class: a strategy *plans*; :meth:`schedule` is the one executor.

    Subclasses implement :meth:`plan` only.  Everything that touches the
    simulator — lowering, memory charging, running, trace assembly — happens
    once, in :meth:`schedule`.
    """

    #: short name used in reports and benchmark tables
    name: str = "strategy"

    def __init__(self, policy: Optional[Callable[[str, List[SimTask]], SimTask]] = None):
        self.policy = policy

    def plan(self, jobs: List[TrainingJob], cluster: Cluster) -> SchedulePlan:  # pragma: no cover - interface
        """Decide waves, task graphs, placement and memory accounting for ``jobs``.

        Must not charge ``cluster``'s ledgers; raises
        :class:`~repro.exceptions.SchedulingError` when the jobs cannot run
        under this strategy.
        """
        raise NotImplementedError

    def schedule(self, jobs: Sequence[TrainingJob], cluster: Cluster) -> ScheduleResult:
        """Plan ``jobs``, simulate the plan wave by wave, and report the trace."""
        jobs = list(jobs)
        if not jobs:
            raise SchedulingError("no jobs to schedule")
        plan = self.plan(jobs, cluster)
        on_ledgers = plan.peak_memory_bytes is None
        host, simulated = None, cluster
        if plan.host_device is not None:
            # Same devices plus a fresh host-memory endpoint: spill traffic
            # gets its own lane on the timeline and overlaps device compute.
            host = Device(GPU_PRESETS["cpu-host"], name=plan.host_device)
            simulated = Cluster(list(cluster.devices) + [host], cluster.interconnect)
        traces: List[ExecutionTrace] = []
        for wave in plan.waves:
            sim_tasks = plan.lower(wave, host)
            if on_ledgers:
                charge_placement(wave.jobs, cluster, wave.placement, skip=plan.spilled)
            try:
                traces.append(ClusterSimulator(simulated, policy=self.policy).run(sim_tasks))
            finally:
                if on_ledgers:
                    release_placement(wave.jobs, cluster, wave.placement)
        # Waves reuse the same device ledgers; concatenation keeps the
        # per-device maximum of their peaks.
        trace = traces[0] if len(traces) == 1 else ExecutionTrace.concatenate(traces)
        if not on_ledgers:
            trace.peak_memory_bytes = plan.peak_memory_bytes
        return ScheduleResult(
            strategy=self.name,
            trace=trace,
            jobs=jobs,
            placements=[wave.placement for wave in plan.waves],
            waves=len(plan.waves),
            spilled_shards=sorted(plan.spilled),
        )
