"""The concurrent runtime under the experiment API (see ``docs/runtime.md``).

Trial dispatch lives here.  The substrate it runs on lives below, where
``repro.memory`` and ``repro.serving`` reach it too, and is re-exported from
this package: the :class:`WorkerPool` implementations and
:class:`RetryPolicy` (:mod:`repro.runtime.pool`, on the one supervised child
of :mod:`repro.runtime.child`).

:mod:`~repro.api.runtime.concurrent` holds :class:`ConcurrentBackend`, the
:class:`~repro.api.backend.ExecutionBackend` wrapper that gives *any*
backend pooled trial execution, reachable as
``Experiment.run(backend=..., workers=N, pool="thread"|"process")``.  It is
the only dispatcher: its ``train_many`` submits one future per trial with
retry and backoff, applies each trial's straggler deadline, and marks
terminal failures on the trial's handle (``handle.failure``) instead of
raising.

Determinism guarantee: outcomes are always collected in trial order, never
completion order, so an experiment's :class:`SelectionResult` ranking is
identical at every worker count — and, for picklable backends, across
serial, thread, and process pools.
"""

from repro.api.runtime.concurrent import ConcurrentBackend
from repro.runtime.pool import (
    ProcessWorkerPool,
    RetryPolicy,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)

__all__ = [
    "ConcurrentBackend",
    "ProcessWorkerPool",
    "RetryPolicy",
    "SerialWorkerPool",
    "ThreadWorkerPool",
    "WorkerPool",
    "make_pool",
]
