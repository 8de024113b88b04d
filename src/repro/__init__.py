"""repro — reproduction of "Model-Parallel Model Selection for Deep Learning Systems".

The package implements Hydra-style *shard parallelism* for multi-model deep
learning training, together with every substrate the paper depends on:

* :mod:`repro.autograd` / :mod:`repro.nn` / :mod:`repro.optim` — a numpy
  deep-learning engine standing in for PyTorch.
* :mod:`repro.models`, :mod:`repro.data` — the paper's workloads (1.2 M-param
  feedforward net, BERT-style encoders, synthetic SQuAD-like span data).
* :mod:`repro.profiling`, :mod:`repro.cluster` — layer cost models and a
  discrete-event multi-GPU cluster simulator (4×16 GB V100 preset).
* :mod:`repro.sharding`, :mod:`repro.scheduler` — the paper's contribution:
  model partitioning plus the shard-parallel (Hydra) scheduler and its
  task-parallel / model-parallel baselines.
* :mod:`repro.selection`, :mod:`repro.training` — search spaces, trial
  bookkeeping, and the real (shard-parallel) training engine.
* :mod:`repro.memory`, :mod:`repro.serving` — spilled execution with host
  offload, and online inference (registry, batching, servers, fleet router).
* :mod:`repro.runtime` — the leaf substrate: worker pools and the one
  supervised child process.
* :mod:`repro.api` — the front door and top of the package graph:
  ``Experiment`` × searchers (grid/random/ASHA) × execution backends.

See ``DESIGN.md`` for the full system inventory and experiment index.
"""

from repro.version import __version__
from repro import exceptions

__all__ = [
    "__version__",
    "exceptions",
]


#: names re-exported lazily from the declarative experiment API; kept in
#: sync with ``repro.api.__all__`` (asserted by tests/test_api.py)
_API_EXPORTS = (
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
)


def __getattr__(name):
    """Lazily expose the facade APIs to avoid importing heavy modules eagerly."""
    if name in ("HydraSession", "HydraConfig", "run_model_selection"):
        from repro import hydra
        return getattr(hydra, name)
    if name in ("Telemetry", "NullTelemetry", "NULL_TELEMETRY"):
        from repro import telemetry
        return getattr(telemetry, name)
    if name in _API_EXPORTS:
        from repro import api
        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
