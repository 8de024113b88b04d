"""The serving scheduler: bounded queues, micro-batching, weighted-fair pick.

Online traffic arrives one small request at a time, but the engine is far
more efficient per row on a full micro-batch.  One :class:`DynamicBatcher`
sits between the two for *every* serving front-end: a
:class:`~repro.serving.server.ModelServer` declares one
:class:`ModelEntry` (a model's queue, batching policy and replicas), a
:class:`~repro.serving.router.FleetRouter` one per model, and worker
threads pull :class:`Assignment` micro-batches from whichever entry the
scheduler picks.

**Admission.**  Requests enter a bounded FIFO queue — admission control is
per queue, and a full queue *rejects* instead of growing without bound.
Requests whose deadline passes while queued are failed with
:class:`~repro.exceptions.RequestTimeoutError` *before* inference runs — a
dead client's work is dropped, not computed.

**Batching.**  A micro-batch is up to ``max_batch_size`` rows of whole
requests from one queue, collected for at most the queue's fill window
(``max_wait``) after the batch's *head request arrived*.  An idle server
therefore answers a lone request after at most ``max_wait`` of batching
delay, while a loaded one fills whole batches instantly: a *saturated*
batch — one that already holds ``max_batch_size`` rows, or whose next
queued request would not fit — dispatches the moment it saturates instead
of waiting out the window.  A window of zero is **continuous batching**:
the moment a worker is free and the queue is non-empty, whatever is ready
*now* dispatches — under fleet-level load there is always other work to
run, so idling a worker to fatten one model's batch only adds latency.
Requests are never split across batches and never reordered: collection
walks the queue front-to-back and stops at the first request that does not
fit, so responses complete in submission order per batch.

**Weighted-fair selection.**  Among the queues with a dispatchable batch,
the pick is by stride scheduling: every queue carries a ``pass`` value
advanced by ``rows / weight`` each time it is served, and the smallest pass
goes next.  A queue with twice the weight gets twice the rows over time,
and no backlogged queue can be starved — its pass stops advancing while
others' grow.  A queue that was empty re-enters at the scheduler's current
virtual time, so an idle model cannot bank credit and then monopolise the
pool.

**Completion.**  Every request carries one :class:`PendingResponse`: its
outcome, ``completed_at`` and a lock taken at construction.  The one
completion — the rows from a worker, or a timeout, cancellation or replica
failure — stores the outcome and releases the lock, and each waiter
acquires and releases it in turn; a second completion raises
:class:`~repro.exceptions.ServingError` instead of replacing the first.

**Outcomes.**  Every request ends here one way or another, so the batcher
counts them: into its own :class:`~repro.telemetry.metrics.MetricsRegistry`
(:attr:`DynamicBatcher.registry`), under ``serving.<model>.`` — counters
``completed``, ``rejected``, ``timed_out``, ``failed``, ``batches`` and
``batch_rows``, and one bounded ``latency_s`` histogram — plus one
front-end-wide ``serving.queue_depth`` histogram.  A completed batch lands
with one registry call.  :meth:`DynamicBatcher.outcomes` reads a model's
row, or the front-end's as the sum of every model's, so nothing is
recorded twice.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.telemetry.metrics import MetricsRegistry

#: the per-model counters of :attr:`DynamicBatcher.registry`
_OUTCOMES = ("completed", "rejected", "timed_out", "failed", "batches", "batch_rows")
#: the front-end-wide histogram of requests still queued when a batch formed
_QUEUE_DEPTH = "serving.queue_depth"


def _key(model: str, metric: str) -> str:
    """The registry name of one model's metric."""
    return f"serving.{model}.{metric}"


class PendingResponse:
    """The caller-side handle of one in-flight request.

    Completed exactly once by the serving machinery, either with the
    request's output rows or with an exception (timeout, overload at drain,
    replica failure); a second completion raises
    :class:`~repro.exceptions.ServingError`.  ``result`` blocks the calling
    thread — the closed-loop client model — with an optional wait bound of
    its own.

    The handle is one small object: the outcome, its completion time and a
    lock acquired at construction and released once by the completion — a
    latch.  A waiter acquires it (bounded by its timeout) and releases it
    again at once, so every waiter wakes; a caller that comes after the
    completion never touches it.
    """

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._latch.acquire()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: ``time.monotonic()`` at completion — what open-loop load
        #: generation measures latency against (the caller may collect
        #: results long after they landed); ``None`` until then
        self.completed_at: Optional[float] = None

    def done(self) -> bool:
        """Whether a result or error has landed."""
        return self.completed_at is not None

    def set_result(self, value: Any) -> None:
        """Complete the response with the request's output rows."""
        if self.completed_at is not None:
            self._refuse()
        self._value = value
        self.completed_at = time.monotonic()
        try:
            self._latch.release()
        except RuntimeError:  # another completion raced past the check above
            self._refuse()

    def set_exception(self, error: BaseException) -> None:
        """Complete the response with a failure."""
        if self.completed_at is not None:
            self._refuse()
        self._error = error
        self.completed_at = time.monotonic()
        try:
            self._latch.release()
        except RuntimeError:
            self._refuse()

    def result(self, timeout: Optional[float] = None) -> Any:
        """The request's output rows; raises what the request failed with.

        ``timeout`` (seconds) bounds the wait; running out raises
        :class:`~repro.exceptions.RequestTimeoutError`.  A timeout of zero
        or less only checks.
        """
        if self.completed_at is None:
            latch = self._latch
            if timeout is None:
                latch.acquire()
            elif not latch.acquire(timeout=max(timeout, 0.0)):
                raise RequestTimeoutError(f"no response within {timeout:.3f}s wait")
            latch.release()
        if self._error is not None:
            raise self._error
        return self._value

    def _refuse(self) -> None:
        raise ServingError(
            "response completed twice: a request must end exactly once "
            "(completed, rejected, timed out, cancelled or failed)"
        )


@dataclass
class InferenceRequest:
    """One queued inference request (internal to the serving machinery)."""

    arrays: Dict[str, np.ndarray]
    rows: int
    submitted: float
    deadline: Optional[float] = None
    response: PendingResponse = field(default_factory=PendingResponse)

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed."""
        return self.deadline is not None and now >= self.deadline


@dataclass(eq=False)
class ModelEntry:
    """One served model: its bounded FIFO, batching policy, and executors.

    ``max_wait`` is the fill window in seconds (0 = continuous batching),
    ``weight`` the model's fair share of the workers.  ``replicas`` all
    answer ``infer(arrays, pad_to)`` / ``close()`` and run every micro-batch
    at ``compute_batch_size`` rows (default ``max_batch_size``); worker slot
    ``i`` uses ``replicas[i % len(replicas)]``.

    Raises:
        ConfigurationError: for non-positive limits or weight, a negative
            fill window, or a compute geometry below ``max_batch_size``.
    """

    name: str
    max_batch_size: int
    max_queue: int
    max_wait: float = 0.0
    weight: float = 1.0
    compute_batch_size: Optional[int] = None
    replicas: Sequence[Any] = ()
    requests: Deque[InferenceRequest] = field(default_factory=deque)
    #: stride-scheduling pass value — served rows / weight, monotone
    pass_value: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.max_queue <= 0:
            raise ConfigurationError(f"max_queue must be positive, got {self.max_queue}")
        if self.max_wait < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait * 1e3}"
            )
        if self.weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {self.weight}")
        self.compute_batch_size = int(
            self.max_batch_size
            if self.compute_batch_size is None
            else self.compute_batch_size
        )
        if self.compute_batch_size < self.max_batch_size:
            raise ConfigurationError(
                f"compute_batch_size ({self.compute_batch_size}) must be >= "
                f"max_batch_size ({self.max_batch_size}); a coalesced batch "
                "must fit the geometry"
            )


class Assignment(NamedTuple):
    """One micro-batch handed to a worker by :meth:`DynamicBatcher.next_batch`."""

    entry: ModelEntry
    requests: List[InferenceRequest]
    rows: int
    #: requests still waiting, across all entries, once this batch was formed
    depth: int


def _stride_key(entry: ModelEntry) -> Tuple[float, str]:
    return entry.pass_value, entry.name


class DynamicBatcher:
    """The scheduler over every entry of one front-end (see module docstring).

    Example::

        batcher = DynamicBatcher()
        entry = ModelEntry("mlp", max_batch_size=8, max_queue=64, max_wait=0.002)
        batcher.add_entry(entry)
        batcher.submit(entry, request)       # raises ServerOverloadedError when full
        work = batcher.next_batch()          # Assignment, or None (closed and drained)
        batcher.complete(work, time.monotonic())  # after the responses are set
        row = batcher.outcomes("mlp")        # completed, p50/p95/p99, ...

    Raises:
        ConfigurationError: for a duplicate entry name, or a request larger
            than its entry's ``max_batch_size`` rows (it could never be
            scheduled).
        ServerOverloadedError: from :meth:`submit` when the queue is full.
        ServingError: from :meth:`submit` after :meth:`close`.
    """

    def __init__(self) -> None:
        self.batches_dispatched = 0
        #: number of requests currently queued, across all entries
        self.pending = 0
        self._entries: Dict[str, ModelEntry] = {}
        #: entered directly (a C-level lock); waits and notifications go
        #: through the condition built on it
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: min-heap of (deadline, tiebreak, request, entry); the items of
        #: requests that already left their queue are pruned lazily
        self._deadlines: List[Tuple[float, int, InferenceRequest, ModelEntry]] = []
        self._tiebreak = itertools.count()
        #: ids of the queued requests that carry a deadline (what makes a
        #: heap item live)
        self._expirable: Set[int] = set()
        self._virtual_time = 0.0
        self._closed = False
        #: every request outcome of this front-end (see the module docstring)
        self.registry = MetricsRegistry()
        #: the throughput clock: ``ServingCore.start`` resets it
        self.started = time.monotonic()

    # ------------------------------------------------------------------ #
    def add_entry(self, entry: ModelEntry) -> None:
        """Put ``entry`` under the scheduler (before or while serving)."""
        with self._lock:
            if entry.name in self._entries:
                raise ConfigurationError(f"{entry.name!r} is already registered")
            self._entries[entry.name] = entry
            # A new entry starts at the scheduler's virtual time so it
            # cannot claim the pool retroactively for epochs it sat out.
            entry.pass_value = self._virtual_time

    def entry(self, name: str) -> Optional[ModelEntry]:
        """The entry registered as ``name``, if any."""
        return self._entries.get(name)

    def entries(self) -> List[ModelEntry]:
        """Every registered entry, sorted by name."""
        with self._lock:
            return [entry for _, entry in sorted(self._entries.items())]

    def submit(self, entry: ModelEntry, request: InferenceRequest) -> None:
        """Enqueue one request; reject when its entry's queue is at capacity."""
        if request.rows <= 0:
            raise ConfigurationError("a request must carry at least one row")
        if request.rows > entry.max_batch_size:
            raise ConfigurationError(
                f"request carries {request.rows} rows but {entry.name!r} batches "
                f"at most {entry.max_batch_size}; split it client-side"
            )
        with self._lock:
            if self._closed:
                raise ServingError(
                    f"{entry.name!r} is stopped; no new requests accepted"
                )
            if len(entry.requests) >= entry.max_queue:
                self.count(entry, "rejected", 1)
                raise ServerOverloadedError(
                    f"request queue of {entry.name!r} is full "
                    f"({entry.max_queue} pending); retry later"
                )
            if not entry.requests:
                # Re-entering the ready set: catch up to the virtual time so
                # an idle spell does not convert into a burst entitlement.
                entry.pass_value = max(entry.pass_value, self._virtual_time)
            entry.requests.append(request)
            self.pending += 1
            if request.deadline is not None:
                heapq.heappush(
                    self._deadlines,
                    (request.deadline, next(self._tiebreak), request, entry),
                )
                self._expirable.add(id(request))
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def next_batch(self) -> Optional[Assignment]:
        """Block until a micro-batch is ready; ``None`` once closed and drained.

        The batch holds 1..``max_batch_size`` rows of whole requests in FIFO
        order from the stride-picked entry.  An entry's batch is ready when
        its fill window — measured from when the batch's *head request
        arrived*, so a request that already waited for a free worker is not
        made to wait the full window again — has run out, when the batch is
        saturated, or when the scheduler is closed.
        """
        with self._lock:
            while True:
                # Recomputed per iteration: another worker may take a head,
                # or a deadline pass, while this one waits.
                now = time.monotonic()
                self._expire_locked(now)
                ready = [
                    entry
                    for entry in self._entries.values()
                    if entry.requests and self._ready_locked(entry, now)
                ]
                if ready:
                    return self._take_locked(ready)
                if self._closed:
                    # A closed scheduler dispatches every non-empty queue
                    # immediately, so nothing ready means nothing queued.
                    return None
                self._cond.wait(self._wake_after_locked(now))

    def close(self) -> None:
        """Stop accepting requests; queued work remains drainable."""
        with self._lock:
            self._closed = True
            self._cond.notify_all()

    def cancel_pending(self, error: Optional[BaseException] = None) -> int:
        """Fail every queued request (used when serving stops without draining).

        Each cancelled request counts as ``failed`` for its entry.
        """
        error = error if error is not None else ServingError("serving stopped")
        with self._lock:
            cancelled = [
                (entry, list(entry.requests))
                for entry in self._entries.values()
                if entry.requests
            ]
            for entry, _ in cancelled:
                entry.requests.clear()
            self._deadlines.clear()
            self._expirable.clear()
            self.pending = 0
            self._cond.notify_all()
        for entry, requests in cancelled:
            for request in requests:
                request.response.set_exception(error)
            self.count(entry, "failed", len(requests))
        return sum(len(requests) for _, requests in cancelled)

    # ------------------------------------------------------------------ #
    # Outcomes
    # ------------------------------------------------------------------ #
    def count(self, entry: ModelEntry, outcome: str, requests: int) -> None:
        """Count ``requests`` of ``entry`` that ended as ``outcome``."""
        self.registry.counter(_key(entry.name, outcome), requests)

    def complete(self, work: Assignment, finished: float) -> None:
        """Record ``work``'s requests as answered at ``finished``.

        Called once per batch, after every response is set: the latencies,
        the batch and the queue depth it formed at land in one registry call.
        """
        name = work.entry.name
        self.registry.record(
            counters={
                _key(name, "completed"): len(work.requests),
                _key(name, "batches"): 1,
                _key(name, "batch_rows"): work.rows,
            },
            observations={
                _key(name, "latency_s"): [
                    finished - request.submitted for request in work.requests
                ],
                _QUEUE_DEPTH: (work.depth,),
            },
        )

    def outcomes(self, model: Optional[str] = None) -> Dict[str, float]:
        """One metrics row: counters, batch fill, queue depth, throughput, latency.

        ``model`` names one entry; ``None`` reads the whole front-end — the
        sum of every entry's counters and the merge of their latency
        histograms — which alone carries the queue depth (a model's row
        reports 0).  ``throughput_rps`` counts completions since
        :attr:`started`; latencies are in milliseconds.
        """
        names = [model] if model is not None else [e.name for e in self.entries()]
        counters = self.registry.counters()
        total = {
            outcome: sum(counters.get(_key(name, outcome), 0.0) for name in names)
            for outcome in _OUTCOMES
        }
        latency = self.registry.merged(_key(name, "latency_s") for name in names).snapshot()
        depth = self.registry.merged([_QUEUE_DEPTH] if model is None else []).snapshot()
        elapsed = max(time.monotonic() - self.started, 1e-9)
        batches = total["batches"]
        return {
            "completed": total["completed"],
            "rejected": total["rejected"],
            "timed_out": total["timed_out"],
            "failed": total["failed"],
            "batches": batches,
            "mean_batch_rows": total["batch_rows"] / batches if batches else 0.0,
            "queue_depth_max": depth["max"],
            "queue_depth_mean": depth["mean"],
            "throughput_rps": total["completed"] / elapsed,
            "latency_p50_ms": latency["p50"] * 1e3,
            "latency_p95_ms": latency["p95"] * 1e3,
            "latency_p99_ms": latency["p99"] * 1e3,
            "latency_mean_ms": latency["mean"] * 1e3,
        }

    # ------------------------------------------------------------------ #
    # Internals (call with the condition's lock held)
    # ------------------------------------------------------------------ #
    def _expire_locked(self, now: float) -> None:
        """Fail the queued requests whose deadline has passed."""
        heap, live = self._deadlines, self._expirable
        overdue: Dict[ModelEntry, List[InferenceRequest]] = {}
        while heap and (heap[0][0] <= now or id(heap[0][2]) not in live):
            _, _, request, entry = heapq.heappop(heap)
            if id(request) in live:
                live.discard(id(request))
                overdue.setdefault(entry, []).append(request)
        if len(heap) > 2 * len(live) + 64:
            # Long deadlines on fast traffic: served requests' items sit
            # below the top until they would have expired.  Drop them once
            # they outnumber the live ones (amortised O(1) per request).
            heap[:] = [item for item in heap if id(item[2]) in live]
            heapq.heapify(heap)
        for entry, requests in overdue.items():
            gone = {id(request) for request in requests}
            entry.requests = deque(
                request for request in entry.requests if id(request) not in gone
            )
            self.pending -= len(requests)
            for request in requests:
                request.response.set_exception(
                    RequestTimeoutError(
                        "request expired after "
                        f"{now - request.submitted:.3f}s in the queue"
                    )
                )
            self.count(entry, "timed_out", len(requests))

    def _ready_locked(self, entry: ModelEntry, now: float) -> bool:
        """Whether the non-empty ``entry``'s batch should dispatch now.

        Besides a closed scheduler and an elapsed fill window, that is a
        *saturated* batch — one that can no longer grow: the queued prefix
        already fills ``max_batch_size`` rows, or the first uncollectable
        request would overflow the batch (it is never split, so waiting
        longer cannot add it).  Either way the window buys nothing.
        """
        if self._closed or now >= entry.requests[0].submitted + entry.max_wait:
            return True
        rows = 0
        for request in entry.requests:
            if rows + request.rows > entry.max_batch_size:
                return True
            rows += request.rows
        return rows >= entry.max_batch_size

    def _wake_after_locked(self, now: float) -> Optional[float]:
        """Seconds until the nearest request deadline or fill-window end.

        ``None`` (sleep until notified) when nothing is queued: every event
        that can make a batch ready — submit, close, cancel — notifies.
        """
        wake = self._deadlines[0][0] if self._deadlines else None
        for entry in self._entries.values():
            if entry.requests:
                window_ends = entry.requests[0].submitted + entry.max_wait
                wake = window_ends if wake is None else min(wake, window_ends)
        return None if wake is None else max(wake - now, 0.0)

    def _take_locked(self, ready: List[ModelEntry]) -> Assignment:
        """Stride-pick among the ``ready`` entries and pop the pick's batch."""
        chosen = min(ready, key=_stride_key)
        self._virtual_time = chosen.pass_value
        queued = chosen.requests
        taken: List[InferenceRequest] = []
        rows = 0
        while queued and rows + queued[0].rows <= chosen.max_batch_size:
            request = queued.popleft()
            if request.deadline is not None:
                self._expirable.discard(id(request))
            taken.append(request)
            rows += request.rows
        chosen.pass_value += rows / chosen.weight
        self.pending -= len(taken)
        self.batches_dispatched += 1
        return Assignment(chosen, taken, rows, self.pending)
