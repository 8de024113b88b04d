"""The concurrent runtime under the experiment API (see ``docs/runtime.md``).

The pieces, layered bottom-up:

* :mod:`~repro.api.runtime.pool` — :class:`WorkerPool` implementations
  (serial / thread / process) behind one ``submit`` protocol;
* :mod:`~repro.api.runtime.runner` — :class:`AsyncTrialRunner`, which
  dispatches per-trial tasks as futures with retry, backoff, and straggler
  timeouts (:class:`RetryPolicy`), reporting terminal failures as
  :class:`TrialFault` values instead of raising;
* :mod:`~repro.api.runtime.concurrent` — :class:`ConcurrentBackend`, the
  :class:`~repro.api.backend.ExecutionBackend` wrapper that gives *any*
  backend pooled trial execution, reachable as
  ``Experiment.run(backend=..., workers=N, pool="thread"|"process")``;
* :mod:`~repro.api.runtime.proc` — the process-serving substrate:
  :class:`ModelSpec` (handle-free, picklable model recipes) and
  :class:`ProcessReplica` (serving replicas running in child processes
  over shared-memory transport, weights mmapped from the registry);
* :mod:`~repro.api.runtime.child` — the one supervised child process both
  the process pool's slots and the process replicas are built on.

Determinism guarantee: outcomes are always collected in trial order, never
completion order, so an experiment's :class:`SelectionResult` ranking is
identical at every worker count — and, for picklable backends, across
serial, thread, and process pools.
"""

from repro.api.runtime.concurrent import ConcurrentBackend
from repro.api.runtime.pool import (
    ProcessWorkerPool,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)
from repro.api.runtime.proc import ModelSpec, ProcessReplica
from repro.api.runtime.runner import AsyncTrialRunner, RetryPolicy, TrialFault

__all__ = [
    "AsyncTrialRunner",
    "ConcurrentBackend",
    "ModelSpec",
    "ProcessReplica",
    "ProcessWorkerPool",
    "RetryPolicy",
    "SerialWorkerPool",
    "ThreadWorkerPool",
    "TrialFault",
    "WorkerPool",
    "make_pool",
]
