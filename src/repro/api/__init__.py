"""Declarative experiment API: searchers × execution backends.

This package is the single front door for model selection (see
``DESIGN.md``).  Declare an :class:`Experiment` — search space, objective,
budget, searcher — and run it on any :class:`ExecutionBackend`:

* :class:`~repro.api.backends.SimulationBackend` — cost-model execution on
  the simulated GPU cluster under any scheduling strategy;
* :class:`~repro.api.backends.ShardParallelBackend` — real numpy-engine
  training with Hydra-style shard-parallel interleaving;
* :class:`~repro.api.backends.CerebroBackend` — the same engine with each
  model's epoch walking Cerebro-style fixed data partitions;
* :class:`~repro.api.backends.FunctionBackend` /
  :class:`~repro.api.backends.ResumableFunctionBackend` — plain callables
  (surrogate objectives, tests).

Any searcher composes with any backend; callbacks observe every trial and
can stop trials early.  The :mod:`~repro.api.runtime` subsystem adds
concurrent, fault-tolerant trial execution to any backend:
``Experiment.run(backend=..., workers=N)`` fans each cohort out across a
:class:`~repro.runtime.pool.WorkerPool` (see ``docs/runtime.md``).

Selection's output feeds straight into online inference: :func:`serve`
deploys a model behind a dynamically batched replica pool
(:mod:`repro.serving`), :func:`serve_fleet` deploys *every* published model
of a registry through one shared :class:`~repro.serving.FleetRouter`
(one replica pool, one memory budget — see ``docs/router.md``), and
``SelectionResult.deploy`` rebuilds an experiment's winner — weights from a
:class:`~repro.serving.ModelRegistry` — and serves it, standalone or into a
fleet (see ``docs/serving.md``).

This package is the **top** of the package graph — nothing below it imports
it (``tests/test_layering.py``).  The pools and :class:`RetryPolicy`
(:mod:`repro.runtime`) and :func:`serve` / :func:`serve_fleet`
(:mod:`repro.serving.deploy`) are defined below and re-exported here.
"""

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.api.runtime import (
    ConcurrentBackend,
    ProcessWorkerPool,
    RetryPolicy,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)
from repro.api.backends import (
    CerebroBackend,
    FunctionBackend,
    ResumableFunctionBackend,
    ShardParallelBackend,
    SimulationBackend,
)
from repro.api.callbacks import (
    Callback,
    CallbackList,
    EarlyStopping,
    LoggingCallback,
    TrialTimer,
)
from repro.api.experiment import Budget, Experiment, TrialRunner
from repro.api.searchers import (
    FixedSearcher,
    GridSearcher,
    RandomSearcher,
    Searcher,
    SuccessiveHalvingSearcher,
    make_searcher,
)
from repro.serving.deploy import serve, serve_fleet

__all__ = [
    "Budget",
    "Callback",
    "CallbackList",
    "CerebroBackend",
    "ConcurrentBackend",
    "EarlyStopping",
    "ExecutionBackend",
    "Experiment",
    "FixedSearcher",
    "FunctionBackend",
    "GridSearcher",
    "LoggingCallback",
    "ProcessWorkerPool",
    "RandomSearcher",
    "ResumableFunctionBackend",
    "RetryPolicy",
    "Searcher",
    "SerialWorkerPool",
    "ShardParallelBackend",
    "SimulationBackend",
    "SuccessiveHalvingSearcher",
    "ThreadWorkerPool",
    "TrialHandle",
    "TrialRunner",
    "TrialTimer",
    "WorkerPool",
    "make_pool",
    "make_searcher",
    "serve",
    "serve_fleet",
]
