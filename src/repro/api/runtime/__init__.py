"""The concurrent runtime under the experiment API (see ``docs/runtime.md``).

Trial dispatch lives here.  The substrate it runs on lives below, where
``repro.memory`` and ``repro.serving`` reach it too, and is re-exported from
this package: the :class:`WorkerPool` implementations and
:class:`RetryPolicy` (:mod:`repro.runtime.pool`, on the one supervised child
of :mod:`repro.runtime.child`), and the process-serving pair
:class:`ModelSpec` / :class:`ProcessReplica` (:mod:`repro.serving.process`).

* :mod:`~repro.api.runtime.runner` — :class:`AsyncTrialRunner`, which
  dispatches per-trial tasks as futures with retry, backoff, and straggler
  timeouts, reporting terminal failures as :class:`TrialFault` values
  instead of raising;
* :mod:`~repro.api.runtime.concurrent` — :class:`ConcurrentBackend`, the
  :class:`~repro.api.backend.ExecutionBackend` wrapper that gives *any*
  backend pooled trial execution, reachable as
  ``Experiment.run(backend=..., workers=N, pool="thread"|"process")``.

Determinism guarantee: outcomes are always collected in trial order, never
completion order, so an experiment's :class:`SelectionResult` ranking is
identical at every worker count — and, for picklable backends, across
serial, thread, and process pools.
"""

from repro.api.runtime.concurrent import ConcurrentBackend
from repro.api.runtime.runner import AsyncTrialRunner, TrialFault
from repro.runtime.pool import (
    ProcessWorkerPool,
    RetryPolicy,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)
from repro.serving.process import ModelSpec, ProcessReplica

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
