"""The serve path: workers pulling micro-batches from one scheduler.

:class:`ServingCore` is everything a serving front-end does once its
entries are declared — and both front-ends are that core:

* one :class:`~repro.serving.batcher.DynamicBatcher` — bounded-queue
  admission control (full queue → immediate
  :class:`~repro.exceptions.ServerOverloadedError`), per-request deadlines,
  micro-batch coalescing and the weighted-fair pick between entries;
* worker threads on a :class:`~repro.runtime.pool.WorkerPool` — the
  same execution substrate the concurrent trial runtime uses — each running
  the one serve loop: take an assignment, stack and pad its rows in one
  copy, run them through a replica's ``infer(arrays, pad_to)``, complete
  each response with its slice of the output, record the outcome;
* one ``start()`` / ``stop(drain)`` lifecycle, which also starts the
  throughput clock of the batcher's metrics.

A :class:`ModelServer` is the one-entry case: its batches wait out a fill
window (``max_wait_ms``) and its replicas —
:class:`~repro.serving.replica.Replica`, resident or spilled — each get a
worker of their own.  A :class:`~repro.serving.router.FleetRouter` is the
many-entry case on a shared pool and a shared memory budget.  Residency is
never the serve loop's business: a replica that leases (spilled, or a fleet
member) does so inside its executor's forward.

Every entry executes at its fixed compute geometry (``compute_batch_size``
rows, default ``max_batch_size``), which is what makes responses
independent of how requests happened to be coalesced — see
:mod:`repro.serving.replica` for why.  Two servers over the same weights
and the same geometry answer bit-identically whether they batch
aggressively or not at all, and whether their replicas are resident or
spilled.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, ServingError
from repro.runtime.pool import ThreadWorkerPool
from repro.serving.batcher import (
    Assignment,
    DynamicBatcher,
    InferenceRequest,
    ModelEntry,
    PendingResponse,
)
from repro.serving.replica import Replica, concat_rows, request_rows, slice_rows
from repro.telemetry import NULL_TELEMETRY
from repro.utils.logging import log_context

logger = logging.getLogger(__name__)

#: request payload: a field->array dict, or a bare array for the ``"features"`` field
RequestArrays = Union[Dict[str, np.ndarray], np.ndarray]


class ServingCore:
    """Scheduler + worker loop + lifecycle shared by server and router.

    Subclasses declare their :class:`~repro.serving.batcher.ModelEntry`
    entries on ``_batcher``, set ``_kind`` (the word used in messages, span
    attributes and the ``<kind>.<name>`` collector), and expose the public
    request surface on top of :meth:`_submit` / :meth:`_await`.
    """

    _kind = "server"

    def __init__(
        self,
        name: str,
        workers: int,
        timeout_ms: Optional[float],
        telemetry,
        batcher: DynamicBatcher,
    ):
        if timeout_ms is not None and timeout_ms <= 0:
            raise ConfigurationError(f"timeout_ms must be positive, got {timeout_ms}")
        self.name = name
        self.timeout_ms = timeout_ms
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._workers = int(workers)
        self._batcher = batcher
        #: the SpillManager the entries' executors share, if the front-end owns one
        self._manager = None
        self._labels = {self._kind: name}
        self._pool = None
        self._loops: List[Any] = []
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Start the serve loops on a thread worker pool."""
        if self._running:
            return self
        if self._stopped:
            # stop() released the replicas (spill managers, prefetch
            # threads); a stopped front-end cannot come back.
            raise ServingError(
                f"{self._kind} {self.name!r} was stopped; build a new {self._kind}"
            )
        if self.telemetry.enabled:
            self.telemetry.register_collector(
                f"{self._kind}.{self.name}", self.metrics
            )
        self._batcher.started = time.monotonic()
        self._pool = ThreadWorkerPool(self._workers)
        self._running = True
        self._loops = [
            self._pool.submit(self._serve_loop, slot) for slot in range(self._workers)
        ]
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` (default) queued requests finish first.

        Without it they fail with :class:`~repro.exceptions.ServingError`
        (counted as ``failed``); batches already in flight complete either
        way.  Stopping closes every replica and releases the shared spill
        state: each budget-managed model's canonical bytes are restored
        into its live parameter arrays (an evicted model's truth lives in
        its host copies until then), so the model objects remain usable.
        """
        if not self._running:
            return
        self._batcher.close()
        if not drain:
            self._batcher.cancel_pending(ServingError(f"{self._kind} stopped"))
        try:
            for future in self._loops:
                future.result()
        finally:
            # Even if a serve loop died on an unexpected error, the pool and
            # the replicas' spill state must still be released.
            self._running = False
            self._stopped = True
            self._loops = []
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            for entry in self._batcher.entries():
                for replica in entry.replicas:
                    replica.close()
                if self._manager is not None:
                    self._manager.forget_model(entry.name)
            if self._manager is not None:
                self._manager.close()

    def __enter__(self):
        """Start serving on scope entry."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Stop serving (draining queued requests) on scope exit."""
        self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def _submit(
        self, entry: ModelEntry, arrays: RequestArrays, timeout_ms: Optional[float]
    ) -> PendingResponse:
        """Stamp, validate and enqueue one request on ``entry``'s queue."""
        if not self._running:
            raise ServingError(
                f"{self._kind} {self.name!r} is not running; call start()"
            )
        if isinstance(arrays, np.ndarray):
            arrays = {"features": arrays}
        else:
            arrays = {name: np.asarray(values) for name, values in arrays.items()}
        now = time.monotonic()
        limit = timeout_ms if timeout_ms is not None else self.timeout_ms
        request = InferenceRequest(
            arrays=arrays,
            rows=request_rows(arrays),
            submitted=now,
            deadline=None if limit is None else now + float(limit) / 1e3,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "request.submit", cat="serving",
                model=entry.name, rows=request.rows, **self._labels,
            )
        self._batcher.submit(entry, request)
        return request.response

    def _await(self, response: PendingResponse, timeout_ms: Optional[float]) -> Any:
        """Wait for ``response`` a little past its server-side deadline."""
        limit = timeout_ms if timeout_ms is not None else self.timeout_ms
        # Slack past the server-side deadline so the scheduler's own expiry
        # (the authoritative one) fires first.
        wait = None if limit is None else float(limit) / 1e3 + 1.0
        return response.result(timeout=wait)

    # ------------------------------------------------------------------ #
    # Serve path
    # ------------------------------------------------------------------ #
    def _serve_loop(self, slot: int) -> None:
        """One worker's life: take a (model, batch), infer, complete."""
        tel = self.telemetry
        while True:
            work = self._batcher.next_batch()
            if work is None:
                return
            entry = work.entry
            replica = entry.replicas[slot % len(entry.replicas)]
            with log_context(model=entry.name, **self._labels), tel.span(
                "serve.batch", cat="serving", model=entry.name, replica=replica.name,
                rows=work.rows, requests=len(work.requests), **self._labels,
            ):
                self._serve_batch(entry, replica, work, tel)

    def _serve_batch(
        self, entry: ModelEntry, replica: Any, work: Assignment, tel
    ) -> None:
        """Run one assigned micro-batch and complete its responses."""
        batch = work.requests
        started = time.monotonic()
        try:
            # The concat belongs inside the try: requests with
            # mismatched field sets must fail *their batch*, not kill
            # the worker loop and hang every later client.
            arrays = concat_rows(
                [request.arrays for request in batch], pad_to=entry.compute_batch_size
            )
            with tel.span("serve.forward", cat="serving", replica=replica.name):
                output = replica.infer(arrays, pad_to=entry.compute_batch_size)
        except BaseException as error:  # noqa: BLE001 - mirrored to clients
            # A typed serving error passes through unwrapped so clients can react to the specific failure;
            # everything else is mirrored as a generic ServingError.
            if isinstance(error, ServingError):
                mirrored = error
            else:
                mirrored = ServingError(
                    f"replica {replica.name!r} failed on a micro-batch: "
                    f"{type(error).__name__}: {error}"
                )
            for request in batch:
                request.response.set_exception(mirrored)
            self._batcher.count(entry, "failed", len(batch))
            return
        finished = time.monotonic()
        # An array output is sliced in place; slice_rows walks structured ones.
        direct = isinstance(output, np.ndarray)
        offset = 0
        for request in batch:
            stop = offset + request.rows
            request.response.set_result(
                output[offset:stop] if direct else slice_rows(output, offset, stop)
            )
            offset = stop
        self._batcher.complete(work, finished)
        logger.debug(
            "%s=%s batch model=%s rows=%d/%d requests=%d infer_ms=%.2f queued=%d",
            self._kind,
            self.name,
            entry.name,
            work.rows,
            entry.compute_batch_size,
            len(batch),
            (finished - started) * 1e3,
            work.depth,
        )


class ModelServer(ServingCore):
    """Serves a replica pool behind a dynamically batched request queue.

    Example::

        server = ModelServer([Replica.resident(model)], max_batch_size=8)
        with server:                      # start() / stop()
            logits = server.request({"features": x})
            report = server.metrics()

    ``timeout_ms`` is the default per-request deadline (``None`` = no
    deadline); :meth:`submit` can override it per request.  ``max_queue``
    bounds the admission queue.  ``compute_batch_size`` fixes the execution
    geometry and must be at least ``max_batch_size``.

    Raises:
        ConfigurationError: for an empty replica list or inconsistent
            batch-size settings.
        ServingError: from :meth:`submit`/:meth:`request` when the server is
            not running.
        ServerOverloadedError: from :meth:`submit`/:meth:`request` when the
            queue is full.
        RequestTimeoutError: from ``result()`` when a request misses its
            deadline.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        max_queue: int = 64,
        timeout_ms: Optional[float] = None,
        compute_batch_size: Optional[int] = None,
        name: str = "server",
        telemetry=None,
    ):
        if not replicas:
            raise ConfigurationError("a ModelServer needs at least one replica")
        super().__init__(
            name, len(replicas), timeout_ms, telemetry, DynamicBatcher()
        )
        self.replicas = list(replicas)
        self._entry = ModelEntry(
            name=name,
            max_batch_size=int(max_batch_size),
            max_queue=int(max_queue),
            max_wait=float(max_wait_ms) / 1e3,
            compute_batch_size=compute_batch_size,
            replicas=self.replicas,
        )
        self.max_batch_size = self._entry.max_batch_size
        self.compute_batch_size = self._entry.compute_batch_size
        self._batcher.add_entry(self._entry)

    # ------------------------------------------------------------------ #
    def submit(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> PendingResponse:
        """Enqueue one request and return its response handle.

        ``arrays`` is a field→array dict with a shared leading (row)
        dimension, or a bare array for the ``"features"`` field.
        ``timeout_ms`` overrides the server default deadline.  Raises
        immediately on a full queue (admission control) rather than
        blocking the client.
        """
        return self._submit(self._entry, arrays, timeout_ms)

    def request(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> Any:
        """Synchronous convenience: :meth:`submit` then wait for the rows."""
        return self._await(self.submit(arrays, timeout_ms=timeout_ms), timeout_ms)

    def metrics(self) -> Dict[str, float]:
        """Latency percentiles, throughput, and counters as a plain dict."""
        return self._batcher.outcomes()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a replica."""
        return self._batcher.pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = sum(1 for replica in self.replicas if replica.is_spilled)
        return (
            f"ModelServer({self.name!r}, replicas={len(self.replicas)} "
            f"({kinds} spilled), max_batch={self.max_batch_size}, "
            f"geometry={self.compute_batch_size})"
        )
