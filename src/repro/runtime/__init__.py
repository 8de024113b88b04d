"""The thread/process substrate every layer builds on (see ``docs/runtime.md``).

A leaf package — it imports nothing from ``repro`` but the exception types —
holding the :class:`WorkerPool` implementations with their
:class:`RetryPolicy` (:mod:`~repro.runtime.pool`), the one
:class:`SupervisedChild` process (:mod:`~repro.runtime.child`) and the CPU
placement that keeps a helper thread off its caller's core
(:mod:`~repro.runtime.placement`).
:mod:`repro.memory`, :mod:`repro.serving` and :mod:`repro.api.runtime` build
on it; :mod:`repro.api` re-exports the public names.
"""

from repro.runtime.child import SupervisedChild
from repro.runtime.pool import (
    ProcessWorkerPool,
    RetryPolicy,
    SerialWorkerPool,
    ThreadWorkerPool,
    WorkerPool,
    make_pool,
)

__all__ = [
    "ProcessWorkerPool",
    "RetryPolicy",
    "SerialWorkerPool",
    "SupervisedChild",
    "ThreadWorkerPool",
    "WorkerPool",
    "make_pool",
]
