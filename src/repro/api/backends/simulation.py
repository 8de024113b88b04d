"""Cost-model simulation backend: trials become simulated multi-model jobs.

Each trial is profiled (via ``profile_fn``), sharded by the planner
(:class:`~repro.scheduler.session.HydraSession`), and wrapped into a
:class:`TrainingJob`.  A cohort of trials is scheduled *together* under one
of the six :class:`~repro.scheduler.base.Strategy` classes, named as in
:meth:`HydraSession.simulate` — so grid search over architectures yields the
paper's multi-model workload, and the per-trial metrics read off the shared
trace rank candidates by simulated cost.

Metrics per trial (cumulative across resumed rungs, so successive halving
ranks on total simulated cost):

* ``makespan_seconds`` — cumulative completion time of this trial's tasks;
* ``busy_seconds`` — cumulative device-seconds its tasks occupied;
* ``cluster_utilization`` / ``throughput_samples_per_second`` — whole-cohort
  numbers from the most recent simulation;
* ``num_shards`` — the shard count the planner chose.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.models.registry import create_model
from repro.profiling.cost_model import ModelProfile
from repro.scheduler.session import HydraConfig, HydraSession
from repro.scheduler.task import TrainingJob
from repro.selection.experiment import TrialConfig

#: maps a trial to the analytical cost profile of the model it denotes
ProfileFn = Callable[[TrialConfig], ModelProfile]


def registry_profile(trial: TrialConfig) -> ModelProfile:
    """Default ``profile_fn``: instantiate the trial's ``model`` (a registry
    name, e.g. ``"mlp-tiny"``) and take its analytical profile."""
    name = trial.get("model")
    if name is None:
        raise ValueError(
            f"trial {trial.trial_id!r} has no 'model' hyperparameter; pass an "
            f"explicit profile_fn to SimulationBackend for custom workloads"
        )
    model = create_model(name, seed=int(trial.get("seed", 0)))
    return model.profile()


class SimulationBackend(ExecutionBackend):
    """Executes trials on the discrete-event cluster simulator.

    Example::

        backend = SimulationBackend(profile_fn=lambda t: config_for(t).profile(),
                                    strategy="shard-parallel", batches_per_epoch=2)
        Experiment(space=space, searcher="grid",
                   backend=backend, objective="makespan_seconds").run()

    Raises:
        ConfigurationError: if the strategy name is unknown, or a trial's
            model cannot be partitioned to fit the simulated devices.
    """

    name = "simulation"
    resumable = True
    # Cohort contention on the shared simulated cluster IS the measurement
    # (and simulated time costs no wall clock), so concurrent per-trial
    # dispatch would change the metrics, not speed anything up.  The
    # runtime refuses to wrap this backend; run it with workers unset.
    concurrency_safe = False

    def __init__(
        self,
        profile_fn: Optional[ProfileFn] = None,
        config: Optional[HydraConfig] = None,
        strategy: str = "shard-parallel",
        batches_per_epoch: int = 1,
        batch_size: Optional[int] = None,
        num_shards: Optional[int] = None,
    ):
        self.session = HydraSession(config)
        self.profile_fn = profile_fn if profile_fn is not None else registry_profile
        self.strategy = self.session.make_strategy(strategy)
        self.batches_per_epoch = int(batches_per_epoch)
        self.batch_size = (
            batch_size if batch_size is not None else self.session.config.default_batch_size
        )
        self.num_shards = num_shards

    # ------------------------------------------------------------------ #
    def prepare(self, trial: TrialConfig) -> TrialHandle:
        handle = super().prepare(trial)
        profile = self.profile_fn(trial)
        plan = self.session.plan_model(
            trial.trial_id, profile, batch_size=self.batch_size, num_shards=self.num_shards
        )
        handle.state = {"plan": plan, "makespan": 0.0, "busy": 0.0}
        handle.annotations["num_shards"] = plan.num_shards
        return handle

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        return self.train_many([handle], epochs)[handle.trial_id]

    def train_many(
        self, handles: Sequence[TrialHandle], epochs: int
    ) -> Dict[str, Dict[str, float]]:
        if not handles:
            return {}
        jobs = [
            TrainingJob(
                model_id=handle.trial_id,
                plan=handle.state["plan"],
                num_epochs=epochs,
                batches_per_epoch=self.batches_per_epoch,
                samples_per_batch=self.batch_size,
            )
            for handle in handles
        ]
        self.session.cluster.reset()
        result = self.strategy.schedule(jobs, self.session.cluster)
        per_model = result.per_model_metrics()
        metrics: Dict[str, Dict[str, float]] = {}
        for handle in handles:
            model = per_model[handle.trial_id]
            handle.state["makespan"] += model["finish_seconds"]
            handle.state["busy"] += model["busy_seconds"]
            metrics[handle.trial_id] = {
                "makespan_seconds": handle.state["makespan"],
                "busy_seconds": handle.state["busy"],
                "cluster_utilization": result.cluster_utilization,
                "throughput_samples_per_second": model["throughput_samples_per_second"],
                "num_shards": float(handle.state["plan"].num_shards),
            }
        return metrics
