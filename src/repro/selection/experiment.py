"""Trial bookkeeping for model-selection runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import SearchSpaceError
from repro.serving.deploy import serve


@dataclass(frozen=True)
class TrialConfig:
    """One candidate configuration in a selection run."""

    trial_id: str
    hyperparameters: Dict[str, Any]

    def get(self, name: str, default: Any = None) -> Any:
        return self.hyperparameters.get(name, default)


@dataclass
class TrialResult:
    """Outcome of training one trial (possibly for a partial budget)."""

    trial_id: str
    hyperparameters: Dict[str, Any]
    metrics: Dict[str, float]
    epochs_trained: int
    wall_seconds: float = 0.0

    def metric(self, name: str) -> float:
        if name not in self.metrics:
            raise KeyError(f"trial {self.trial_id} has no metric {name!r}; has {sorted(self.metrics)}")
        return self.metrics[name]


@dataclass
class FailedTrial(TrialResult):
    """A trial that failed terminally (exception or straggler timeout).

    Failed trials stay in the :class:`SelectionResult` trial list — the
    experiment survives them — but are excluded from :meth:`SelectionResult.ranked`
    and :meth:`SelectionResult.best`.  ``metrics`` holds the last metrics the
    trial reported before failing (possibly empty), and ``error`` the
    stringified cause.
    """

    error: str = ""
    timed_out: bool = False


@dataclass
class SelectionResult:
    """Results of a whole selection run, filled in trial by trial as it runs.

    ``Experiment.run`` builds one up front and its ``TrialRunner`` appends
    every :class:`TrialResult` / :class:`FailedTrial` to :attr:`trials`.

    Example::

        result = SelectionResult("grid", objective="loss", mode="min")
        result.trials.append(TrialResult("a", {"lr": 0.1}, {"loss": 0.5}, 1))
        assert result.best().trial_id == "a"

    Raises:
        SearchSpaceError: if ``mode`` is not ``"min"`` or ``"max"``.
    """

    method: str
    objective: str
    mode: str
    trials: List[TrialResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in ("min", "max"):
            raise SearchSpaceError(f"mode must be 'min' or 'max', got {self.mode!r}")

    def succeeded(self) -> List[TrialResult]:
        """The trials that completed (everything except :class:`FailedTrial`)."""
        return [t for t in self.trials if not isinstance(t, FailedTrial)]

    @property
    def failures(self) -> List["FailedTrial"]:
        """The trials that failed terminally, in recording order."""
        return [t for t in self.trials if isinstance(t, FailedTrial)]

    def best(self) -> TrialResult:
        succeeded = self.succeeded()
        if not succeeded:
            raise SearchSpaceError("selection produced no successful trials")
        reverse = self.mode == "max"
        return sorted(succeeded, key=lambda t: t.metric(self.objective), reverse=reverse)[0]

    def ranked(self) -> List[TrialResult]:
        reverse = self.mode == "max"
        return sorted(
            self.succeeded(), key=lambda t: t.metric(self.objective), reverse=reverse
        )

    def deploy(
        self,
        builder,
        registry=None,
        version: Optional[int] = None,
        trial: Optional[TrialResult] = None,
        router=None,
        **serve_options,
    ):
        """Serve a trial of this experiment (the best one by default).

        ``builder`` rebuilds the trial's model from its recorded
        configuration — the same callable an engine backend uses,
        ``builder(TrialConfig) -> model`` or ``-> (model, optimizer,
        loader)``; only the model is used.  With ``registry`` (a
        :class:`~repro.serving.ModelRegistry`) the trial's published
        parameters — written by ``ShardParallelBackend(registry=...)`` when
        the trial retired — are loaded into the rebuilt model, so the
        served weights are exactly the trained ones.  Without a registry
        the builder's own parameters serve (useful when the builder loads
        weights itself).

        Without ``router``, ``serve_options`` are forwarded to
        :func:`repro.api.serve` (``replicas``, ``max_batch_size``,
        ``memory_budget``, ...) and the returned
        :class:`~repro.serving.ModelServer` is already running.  With
        ``router`` (a :class:`~repro.serving.FleetRouter`), the trial joins
        the shared fleet instead — registered under its trial id, served
        from the router's common replica pool and memory budget —
        and the router itself is returned; ``serve_options`` then become
        :meth:`~repro.serving.FleetRouter.add_model` options (``weight``,
        ``max_batch_size``, ``compute_batch_size``, ``max_queue``).

        Example::

            result = experiment.run(backend=backend)
            with result.deploy(build, registry=registry, max_batch_size=8) as server:
                prediction = server.request({"features": x})

        Raises:
            SearchSpaceError: when the run has no successful trial to deploy.
            CheckpointError: when the registry has no published version for
                the trial.
        """
        chosen = trial if trial is not None else self.best()
        config = TrialConfig(
            trial_id=chosen.trial_id, hyperparameters=dict(chosen.hyperparameters)
        )
        built = builder(config)
        model = built[0] if isinstance(built, tuple) else built
        if registry is not None:
            registry.load(chosen.trial_id, model, version=version)
        if router is not None:
            router.add_model(chosen.trial_id, model, **serve_options)
            return router
        return serve(model, **serve_options)

    def __len__(self) -> int:
        return len(self.trials)

