"""Fault-tolerant asynchronous dispatch of per-trial work onto a pool.

The :class:`AsyncTrialRunner` takes a cohort of trial handles and a
per-trial task, submits one future per trial to a
:class:`~repro.runtime.pool.WorkerPool`, and collects the outcomes
**in handle order** — never in completion order — which is what makes
concurrent experiments reproducible.

Fault tolerance is per trial, not per cohort:

* a trial that raises is retried up to
  :attr:`~repro.runtime.pool.RetryPolicy.max_retries`
  times with exponential backoff — inside the worker slot on in-process
  pools, parent-side on the process pool (via
  :meth:`~repro.runtime.pool.WorkerPool.submit_retrying`), so a retry
  survives even the death of the child process running the failed attempt;
* a trial that exhausts its retries (or outlives the straggler deadline)
  becomes a :class:`TrialFault` carried in the result map — the rest of the
  cohort is unaffected and the experiment continues.

Nothing here knows about backends or searchers; the
:class:`~repro.api.runtime.concurrent.ConcurrentBackend` builds the tasks.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.runtime.pool import RetryPolicy, WorkerPool


@dataclass(frozen=True)
class TrialFault:
    """The terminal failure record of one trial (exception or straggle).

    ``attempts`` counts every execution attempt, including the first;
    ``timed_out`` marks straggler deadlines rather than raised exceptions.
    Faults flow through the result map of :meth:`AsyncTrialRunner.run_cohort`
    and end up as :class:`~repro.selection.experiment.FailedTrial` records in
    the :class:`~repro.selection.experiment.SelectionResult`.

    Example::

        fault = TrialFault(trial_id="grid-3", error="boom", attempts=2)
        assert not fault.timed_out
    """

    trial_id: str
    error: str
    attempts: int = 1
    timed_out: bool = False


class AsyncTrialRunner:
    """Dispatches one task per trial onto a pool and gathers ordered outcomes.

    The runner is stateless between calls; one instance may serve many
    cohorts.  It never raises on a trial failure — failures come back as
    :class:`TrialFault` values in the result map, so callers decide policy.

    Example::

        from repro.api.runtime import AsyncTrialRunner, make_pool

        runner = AsyncTrialRunner(make_pool(4))
        outcomes = runner.run_cohort(lambda handle: handle.trial_id.upper(), handles)

    Raises:
        ConfigurationError: from :class:`RetryPolicy` validation at
            construction time.
    """

    def __init__(self, pool: WorkerPool, retry: Optional[RetryPolicy] = None):
        self.pool = pool
        self.retry = retry if retry is not None else RetryPolicy()

    # ------------------------------------------------------------------ #
    def run_cohort(
        self, task: Callable[[Any], Any], handles: Sequence[Any]
    ) -> Dict[str, Any]:
        """Run ``task(handle)`` for every handle; return outcomes by trial id.

        The result dict is keyed in **handle order**, and each value is
        either the task's return value or a :class:`TrialFault`.  Retries
        (with backoff) happen inside the trial's own pool slot
        (:meth:`~repro.runtime.pool.WorkerPool.submit_retrying`), so a
        flaky trial does not serialise the cohort.  With a ``timeout_seconds`` policy, any
        outcome not ready by the cohort deadline is recorded as a timed-out
        fault and its future cancelled — a queued trial is cancelled cleanly,
        a truly running straggler is abandoned (threads cannot be killed)
        and its eventual result discarded.
        """
        futures: Dict[str, Future] = {}
        for handle in handles:
            futures[handle.trial_id] = self.pool.submit_retrying(self.retry, task, handle)
        deadline = (
            time.monotonic() + self.retry.timeout_seconds
            if self.retry.timeout_seconds is not None
            else None
        )
        outcomes: Dict[str, Any] = {}
        for handle in handles:
            future = futures[handle.trial_id]
            try:
                if deadline is None:
                    outcomes[handle.trial_id] = future.result()
                else:
                    remaining = max(0.0, deadline - time.monotonic())
                    outcomes[handle.trial_id] = future.result(timeout=remaining)
            except FutureTimeoutError:
                future.cancel()
                outcomes[handle.trial_id] = TrialFault(
                    trial_id=handle.trial_id,
                    error=(
                        f"straggler: no result within "
                        f"{self.retry.timeout_seconds:.3f}s cohort deadline"
                    ),
                    attempts=1,
                    timed_out=True,
                )
            except Exception as error:  # noqa: BLE001 - worker already retried
                outcomes[handle.trial_id] = TrialFault(
                    trial_id=handle.trial_id,
                    error=f"{type(error).__name__}: {error}",
                    attempts=self.retry.max_retries + 1,
                )
        return outcomes
