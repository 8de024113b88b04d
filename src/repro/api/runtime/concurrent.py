"""``ConcurrentBackend``: concurrent trial execution for any backend.

This wrapper is how an :class:`~repro.api.experiment.Experiment` gains a
worker pool without touching searchers or backends: it *is* an
:class:`~repro.api.backend.ExecutionBackend`, so the
:class:`~repro.api.experiment.TrialRunner` drives it like any other, but
each cohort call fans out across a :class:`~repro.runtime.pool.WorkerPool`:

* ``prepare`` is **deferred**: the handle is created instantly and the
  inner backend's (potentially expensive) ``prepare`` runs inside the worker
  on first training contact — so a cohort's preparations overlap too.
  In-process, the prepared state and annotations are copied into that same
  handle: the inner backend trains and tears down the very handle the
  runner holds;
* ``train_many`` is the one dispatcher: one future per trial, with
  per-trial retry and backoff from a
  :class:`~repro.runtime.pool.RetryPolicy`, and a straggler deadline that
  runs from the trial's own dispatch (on the inline serial pool, from the
  start of its inline run).  A trial has one body (:func:`_run_trial`), one
  way to its live state (:func:`_live`) and one report shape
  (:class:`_TrialReport`) on every pool; a process pool only wraps the body
  in a picklable task and adds the snapshot and the child's telemetry events
  to the report.  State crosses the boundary through the inner backend's
  two snapshot hooks: ``save_snapshot`` (live → token) after training and
  ``finalize_snapshot`` (token → live) before it;
* a trial that still fails is marked on its handle (``handle.failure``) and
  surfaces as a :class:`~repro.selection.experiment.FailedTrial` — the rest
  of the cohort and the experiment continue;
* results are collected in handle order, never completion order, so the
  :class:`~repro.selection.experiment.SelectionResult` ranking is identical
  at any worker count.

Semantics note: :class:`~repro.api.backends.ShardParallelBackend` (and
Cerebro, its fixed-partition configuration) normally co-schedules the whole
cohort inside one driver.  Wrapped, each trial trains in its own single-model
driver on its own worker instead.  Each model's own update sequence is
unchanged — cohort membership never leaks into a model's numerics, for
Cerebro too, since every trial starts its epoch on the same partition — so
losses and rankings match the serial run exactly.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.exceptions import ConfigurationError
from repro.runtime.pool import RetryPolicy, WorkerPool, make_pool
from repro.selection.experiment import TrialConfig
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.utils.logging import log_context
from repro.utils.serialization import probe_picklable


@dataclass(frozen=True)
class _TrialReport:
    """What one trial's train call hands back, from any pool.

    Live state never crosses a process boundary: from a pool child,
    ``snapshot`` is whatever the inner backend's ``save_snapshot`` returned
    (a checkpoint path for real-training backends), stored in the parent as
    ``handle.state``, and ``events`` are the child's drained
    telemetry events — they ride the existing result channel, so a child
    killed mid-trial ships nothing and the parent trace is never torn.
    In-process both stay empty: the live state is already in the parent.
    """

    metrics: Dict[str, float]
    elapsed: float
    annotations: Dict[str, Any] = field(default_factory=dict)
    snapshot: Any = None
    events: Tuple = ()


class _Unprepared:
    """``handle.state`` until the inner backend's deferred ``prepare`` runs.

    A class, not an instance, so it keeps its identity across the pickle
    boundary of a process pool.
    """


def _live(backend: ExecutionBackend, handle: TrialHandle) -> None:
    """Give ``handle`` live state: ``prepare`` on first contact, else
    ``finalize_snapshot`` (a no-op on state that is already live).

    In-process ``handle`` is the runner's own; in a pool child it is the
    unpickled copy carrying the last snapshot token.  Only one task touches
    a given trial at a time (one future per handle per dispatch; retries
    run inside that future).
    """
    if handle.state is _Unprepared:
        prepared = backend.prepare(handle.trial)
        handle.annotations.update(prepared.annotations)
        handle.state = prepared.state
    else:
        backend.finalize_snapshot(handle)


def _run_trial(
    backend: ExecutionBackend,
    handle: TrialHandle,
    epochs: int,
    telemetry,
    snapshot_dir: Optional[str] = None,
) -> _TrialReport:
    """One trial's train call — the one body every pool runs.

    A pool child also passes the ``snapshot_dir`` to save the trained state
    in.  The clock covers this trial's ``train`` only.
    """
    # A nesting span, so the backend's epoch/step spans get this trial as
    # their parent in the (merged) trace.
    with log_context(trial_id=handle.trial_id), telemetry.span(
        "trial", cat="experiment", trial_id=handle.trial_id
    ):
        _live(backend, handle)
        started = time.monotonic()
        metrics = backend.train(handle, epochs)
        elapsed = time.monotonic() - started
        snapshot = None
        if snapshot_dir is not None:
            # The child's handle is its own, so it counts its epochs here.
            # The snapshot is named by the post-train count: a retried
            # attempt reloads the previous rung's archive, which must
            # therefore never be overwritten.
            handle.epochs_trained += epochs
            snapshot = backend.save_snapshot(handle, snapshot_dir)
    return _TrialReport(dict(metrics), elapsed, dict(handle.annotations), snapshot)


@dataclass(frozen=True)
class _ChildTrialTask:
    """A picklable per-trial task: one whole train call, run in a child.

    The task carries the inner backend *by value* — every dispatch unpickles
    a fresh copy in the worker child, which rebuilds per-process resources
    (spill managers rebuild from their options; registries rebind to their
    root directory).  The child never runs ``teardown``: publish-like
    side effects happen exactly once, in the parent, at retirement.
    """

    inner: ExecutionBackend
    epochs: int
    snapshot_dir: str
    # A bool crosses the pickle boundary; a live recorder (locks) cannot.
    # The child builds its own buffer and drains it into the report.
    telemetry_enabled: bool = False

    def __call__(self, handle: TrialHandle) -> _TrialReport:
        backend = self.inner
        tel = Telemetry() if self.telemetry_enabled else NULL_TELEMETRY
        backend.set_telemetry(tel)
        try:
            report = _run_trial(backend, handle, self.epochs, tel, self.snapshot_dir)
            return replace(report, events=tuple(tel.drain()))
        finally:
            # This unpickled backend copy dies with the task, but the child
            # process persists — release any threads it started (prefetch
            # workers) rather than accumulating them across tasks.
            close = getattr(backend, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:  # noqa: BLE001 - cleanup must not mask
                    pass


class ConcurrentBackend(ExecutionBackend):
    """Wraps any :class:`ExecutionBackend` with pooled, fault-tolerant trials.

    ``workers`` sizes an owned pool of ``pool_kind`` (``"thread"`` by
    default, ``"process"`` for GIL-free trials); pass ``pool`` instead to
    share one across backends (the caller keeps ownership and ``pool_kind``
    is ignored).  ``retry`` configures per-trial fault tolerance.  The
    wrapper is resumable exactly when the inner backend is, so searcher
    eligibility (e.g. successive halving) is unchanged.

    With a **process** pool each trial's whole train call runs in a worker
    child process: the inner backend must pickle (checked up front with a
    round-trip probe — module-level builder functions yes, lambdas no), the
    trial comes home as a ``save_snapshot`` token instead of live state
    (``finalize_snapshot`` turns it back into live state wherever that is
    needed), and retirement (``teardown``) happens exactly once, in the
    parent.  Results are bit-identical to the thread and
    serial pools at any worker count.

    Example::

        from repro.api import ConcurrentBackend, FunctionBackend

        backend = ConcurrentBackend(
            FunctionBackend(lambda trial, epochs: {"loss": 0.0}), workers=4
        )
        try:
            ...  # Experiment(...).run(backend=backend)
        finally:
            backend.close()

    (``Experiment.run(..., workers=N, pool="...")`` builds and closes one
    of these for you; constructing it by hand is only needed for custom
    pools/policies.)

    Raises:
        ConfigurationError: if ``workers`` is not positive, the retry policy
            is invalid, the inner backend declares
            ``concurrency_safe = False`` (its metrics depend on cohort
            co-scheduling — the cluster simulator), or a process pool is
            requested for an inner backend that cannot pickle.
    """

    resumable = True  # overwritten per-instance from the inner backend

    def __init__(
        self,
        inner: ExecutionBackend,
        workers: int = 4,
        pool: Optional[WorkerPool] = None,
        retry: Optional[RetryPolicy] = None,
        pool_kind: str = "thread",
    ):
        if not inner.concurrency_safe:
            raise ConfigurationError(
                f"backend {inner.name!r} measures whole-cohort co-scheduling; "
                f"concurrent per-trial dispatch would change its metrics, not "
                f"accelerate it — run it without workers"
            )
        requested_kind = pool.kind if pool is not None else pool_kind
        if requested_kind == "process":
            problem = probe_picklable(inner)
            if problem is not None:
                raise ConfigurationError(
                    f"backend {inner.name!r} cannot cross a process boundary "
                    f"({problem}); process pools ship the backend to worker "
                    "children by pickling it — use module-level builder "
                    "functions (not closures/lambdas), or a thread pool"
                )
        self.inner = inner
        self.name = f"concurrent({inner.name})"
        self.resumable = inner.resumable
        if pool is not None:
            self.pool = pool
            self._owned_pool: Optional[WorkerPool] = None
        else:
            self.pool = make_pool(workers, kind=pool_kind)
            self._owned_pool = self.pool
        self._process_mode = self.pool.kind == "process"
        self._snapshot_dir: Optional[str] = None
        if self._process_mode:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repro-trial-snapshots-")
        self.retry = retry if retry is not None else RetryPolicy()

    def set_telemetry(self, telemetry) -> None:
        """Attach a recorder; propagate inward only when trials stay in-process.

        In process mode the inner backend is pickled into every child task —
        a live recorder (it holds locks) must not be hung on it; children
        get a ``telemetry_enabled`` flag and build their own buffer instead.
        """
        super().set_telemetry(telemetry)
        if not self._process_mode:
            self.inner.set_telemetry(self.telemetry)
        self.telemetry.register_collector(
            "runtime.pool",
            lambda: {"kind": {"thread": 0, "process": 1}.get(self.pool.kind, -1),
                     "workers": self.pool.size,
                     "restarts": self.pool.restarts},
        )

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #
    def prepare(self, trial: TrialConfig) -> TrialHandle:
        """Create a lightweight handle; the inner ``prepare`` is deferred.

        The expensive part (building models, plans, loaders) runs inside a
        worker at this trial's first ``train``/``train_many`` contact, so a
        whole cohort's preparations overlap instead of queueing on the
        caller's thread.
        """
        return TrialHandle(trial=trial, state=_Unprepared)

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        """Train one trial through the pool (a cohort of one)."""
        return self.train_many([handle], epochs)[handle.trial_id]

    def train_many(
        self, handles: Sequence[TrialHandle], epochs: int
    ) -> Dict[str, Dict[str, float]]:
        """Fan the cohort out across the pool; collect metrics in handle order.

        Each trial's task is ``prepare`` (first time only) + ``train`` on the
        inner backend, retried per the policy.  A trial that exhausts its
        retries, or whose outcome is not in by its deadline
        (``timeout_seconds`` after its own dispatch), gets ``handle.failure``
        set and an empty metrics dict here — the :class:`TrialRunner` turns
        that into a :class:`FailedTrial` record and retires the trial.  A
        straggler's future is cancelled: a queued trial never starts, a
        running one is abandoned (threads cannot be killed) and its eventual
        result discarded.  Retries re-run the whole task, so a failing
        ``prepare`` is re-attempted from scratch (at-least-once execution: a
        trial that mutated state before raising resumes from that state).
        """
        tel = self.telemetry
        if self._process_mode:
            task = _ChildTrialTask(self.inner, epochs, self._snapshot_dir, tel.enabled)
        else:
            task = lambda handle: _run_trial(self.inner, handle, epochs, tel)  # noqa: E731
        timeout = self.retry.timeout_seconds
        dispatched = []
        for handle in handles:
            if handle.failure is None:
                started = time.monotonic()
                future = self.pool.submit_retrying(self.retry, task, handle)
                # The serial pool has already run the trial inline, so its
                # outcome arrived just now.
                late = future.done() and timeout is not None and (
                    time.monotonic() - started > timeout
                )
                dispatched.append((handle, future, started, late))
        metrics: Dict[str, Dict[str, float]] = {handle.trial_id: {} for handle in handles}
        for handle, future, started, late in dispatched:
            if not late:
                wait = None if timeout is None else max(0.0, started + timeout - time.monotonic())
                try:
                    # ``exception`` raises only when the wait runs out; a trial
                    # that itself raised TimeoutError comes back as its error.
                    error = future.exception(timeout=wait)
                except FutureTimeoutError:
                    late = True
            if late:
                future.cancel()
                handle.failure = {
                    "error": f"straggler: no result within {timeout:.3f}s cohort deadline",
                    "timed_out": True,
                }
            elif error is not None:
                handle.failure = {"error": f"{type(error).__name__}: {error}", "timed_out": False}
            if handle.failure is not None:
                tel.counter("runtime.trials.failed")
                continue
            report: _TrialReport = future.result()
            tel.counter("runtime.trials.completed")
            handle.wall_seconds += report.elapsed
            for key, value in report.annotations.items():
                handle.annotations.setdefault(key, value)
            if self._process_mode:
                handle.state = report.snapshot
            tel.ingest(report.events)
            metrics[handle.trial_id] = dict(report.metrics)
        return metrics

    def teardown(self, handle: TrialHandle) -> None:
        """Retire the trial on the inner backend, inline and exactly once.

        ``teardown`` runs on this very handle, in this process — never
        through the pool, which abandoned stragglers may be saturating.  A
        process-pool trial's handle holds its last snapshot token; a backend
        whose teardown needs live state (registry publication) calls its own
        ``finalize_snapshot`` first.  A trial that never got past
        ``prepare`` has nothing to release.  Best-effort: never raises, so a
        failed trial's teardown cannot mask the fault.
        """
        if handle.state is _Unprepared:
            return
        try:
            self.inner.teardown(handle)
        except Exception:  # noqa: BLE001 - teardown must not mask the fault
            handle.state = None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the owned pool (no-op when the pool was caller-supplied).

        Shutdown does not wait: an abandoned straggler keeps its thread until
        it finishes (threads cannot be killed), but its result is already
        discarded and it must not delay the experiment's return.
        """
        if self._owned_pool is not None:
            self._owned_pool.shutdown(wait=False)
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    def __enter__(self) -> "ConcurrentBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop for the owned pool
        try:
            self.close()
        except Exception:
            pass
