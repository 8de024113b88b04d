"""Load generation: closed-loop and open-loop clients, single-model or fleet.

Two client models, picked by ``arrival_rate_rps``:

* **Closed loop** (default) — each client sends one request, waits for its
  response, then sends the next.  Offered load self-regulates to what the
  server sustains instead of queueing without bound, and ``clients``
  concurrent loops hold at most ``clients`` requests in flight — exactly
  the pressure that lets the dynamic batcher fill micro-batches.
* **Open loop** (``arrival_rate_rps`` set) — requests are *injected* on a
  fixed schedule regardless of how fast responses come back, the model of
  real traffic: users do not slow down because the server is busy.  Each
  client fires its share of the arrival process on time, holds the pending
  responses, and collects them at the end; latency is measured from
  injection to the response's completion stamp, so a response that landed
  long before the client got around to collecting it is not overcharged.

Against a :class:`~repro.serving.router.FleetRouter`, ``mix`` maps model
names to traffic weights and each request is routed by a deterministic
weighted interleaving (largest-remainder, so a ``{"a": 3, "b": 1}`` mix
sends exactly 3:1 — no sampling noise in benchmarks).  The report then
carries per-model completion counts next to the fleet-wide percentiles.

Rejections (bounded-queue admission control) and timeouts are *outcomes*,
not errors: the generator counts them and moves on, and the report carries
the full accounting next to the latency percentiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServingError,
)
from repro.runtime.pool import ThreadWorkerPool
from repro.serving.batcher import PendingResponse
from repro.serving.router import FleetRouter, RouterHandle
from repro.serving.server import ModelServer, RequestArrays

#: builds the arrays of one request: ``make_request(client_index, request_index)``
RequestFactory = Callable[[int, int], RequestArrays]

#: what a generator can drive: a server, one model's handle, or a whole fleet
LoadTarget = Union[ModelServer, RouterHandle, FleetRouter]


def _latency_summary(latencies_seconds: List[float]) -> Dict[str, float]:
    """Exact p50/p95/p99/mean of a latency sample, in milliseconds (zeros when empty)."""
    if not latencies_seconds:
        return dict.fromkeys(
            ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms", "latency_mean_ms"), 0.0
        )
    values = np.asarray(latencies_seconds, dtype=np.float64) * 1e3
    p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
    return {
        "latency_p50_ms": float(p50),
        "latency_p95_ms": float(p95),
        "latency_p99_ms": float(p99),
        "latency_mean_ms": float(values.mean()),
    }


def mix_schedule(mix: Dict[str, float], length: int) -> List[str]:
    """A deterministic ``length``-long model sequence proportional to ``mix``.

    Largest-remainder interleaving: every position credits each model by its
    normalized weight and picks the most-owed one, so a ``{"a": 3, "b": 1}``
    mix yields exactly 3 "a" per "b" with the two spread evenly — the same
    traffic every run, which is what exactness tests and benchmarks need.
    """
    if not mix:
        raise ConfigurationError("mix must name at least one model")
    for name, weight in mix.items():
        if weight <= 0:
            raise ConfigurationError(
                f"mix weight for {name!r} must be positive, got {weight}"
            )
    names = sorted(mix)
    total = sum(mix.values())
    credit = {name: 0.0 for name in names}
    schedule: List[str] = []
    for _ in range(int(length)):
        for name in names:
            credit[name] += mix[name] / total
        pick = max(names, key=lambda name: (credit[name], name))
        credit[pick] -= 1.0
        schedule.append(pick)
    return schedule


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    clients: int
    duration_seconds: float
    completed: int
    rejected: int
    timed_out: int
    failed: int
    #: completed requests per second over the run's wall-clock window
    throughput_rps: float
    #: p50/p95/p99/mean end-to-end latency in milliseconds
    latency: Dict[str, float] = field(default_factory=dict)
    #: ``"closed"`` or ``"open"``
    mode: str = "closed"
    #: the injection rate an open-loop run aimed for (``None`` closed-loop)
    offered_rps: Optional[float] = None
    #: completed requests per model (fleet runs only)
    per_model: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The report flattened to one plain dict (for benchmark JSON)."""
        merged: Dict[str, object] = {
            "mode": self.mode,
            "clients": float(self.clients),
            "duration_seconds": self.duration_seconds,
            "completed": float(self.completed),
            "rejected": float(self.rejected),
            "timed_out": float(self.timed_out),
            "failed": float(self.failed),
            "throughput_rps": self.throughput_rps,
        }
        if self.offered_rps is not None:
            merged["offered_rps"] = self.offered_rps
        if self.per_model:
            merged["per_model"] = {
                name: float(count) for name, count in sorted(self.per_model.items())
            }
        merged.update(self.latency)
        return merged


class LoadGenerator:
    """Drives ``clients`` concurrent client loops against one target.

    Each client issues ``requests_per_client`` requests — back to back in
    closed-loop mode, on a fixed schedule when ``arrival_rate_rps`` selects
    open-loop mode (the rate is the *aggregate* across all clients).
    ``make_request`` builds each request's arrays (vary it per client/index
    for realistic traffic; return the same arrays for a pure-throughput
    run).

    The target may be a :class:`~repro.serving.server.ModelServer`, a
    :class:`~repro.serving.router.RouterHandle`, or — with ``mix`` — a
    whole :class:`~repro.serving.router.FleetRouter`, in which case every
    request is routed to a model by the deterministic weighted interleaving
    of :func:`mix_schedule`.

    Example::

        generator = LoadGenerator(server, lambda c, i: {"features": x},
                                  clients=8, requests_per_client=25)
        report = generator.run()
        assert report.completed <= 8 * 25

    Raises:
        ConfigurationError: for non-positive ``clients``,
            ``requests_per_client``, or ``arrival_rate_rps``; for a fleet
            target without ``mix`` (or ``mix`` without a fleet target).
    """

    def __init__(
        self,
        server: LoadTarget,
        make_request: RequestFactory,
        clients: int = 4,
        requests_per_client: int = 25,
        timeout_ms: Optional[float] = None,
        arrival_rate_rps: Optional[float] = None,
        mix: Optional[Dict[str, float]] = None,
    ):
        if clients <= 0:
            raise ConfigurationError(f"clients must be positive, got {clients}")
        if requests_per_client <= 0:
            raise ConfigurationError(
                f"requests_per_client must be positive, got {requests_per_client}"
            )
        if arrival_rate_rps is not None and arrival_rate_rps <= 0:
            raise ConfigurationError(
                f"arrival_rate_rps must be positive, got {arrival_rate_rps}"
            )
        if isinstance(server, FleetRouter) and mix is None:
            raise ConfigurationError(
                "driving a FleetRouter needs a mix={model: weight} to route by; "
                "use router.handle(model) for single-model traffic"
            )
        if mix is not None and not isinstance(server, FleetRouter):
            raise ConfigurationError(
                "mix routing needs a FleetRouter target, got "
                f"{type(server).__name__}"
            )
        self.server = server
        self.make_request = make_request
        self.clients = int(clients)
        self.requests_per_client = int(requests_per_client)
        self.timeout_ms = timeout_ms
        self.arrival_rate_rps = arrival_rate_rps
        self.mix = dict(mix) if mix is not None else None
        self._schedules: Optional[List[List[str]]] = None
        if self.mix is not None:
            # One flat fleet-wide interleaving dealt round-robin to clients:
            # each client's subsequence keeps the global proportions and the
            # whole run sends the mix exactly.
            flat = mix_schedule(self.mix, self.clients * self.requests_per_client)
            self._schedules = [flat[client :: self.clients] for client in range(self.clients)]

    # ------------------------------------------------------------------ #
    def run(self) -> LoadReport:
        """Run every client loop to completion and aggregate the outcomes."""
        open_loop = self.arrival_rate_rps is not None
        loop = self._open_loop if open_loop else self._closed_loop
        started = time.monotonic()
        with ThreadWorkerPool(self.clients) as pool:
            futures = [pool.submit(loop, client) for client in range(self.clients)]
            outcomes = [future.result() for future in futures]
        duration = time.monotonic() - started
        latencies: List[float] = []
        rejected = timed_out = failed = 0
        per_model: Dict[str, int] = {}
        for client_latencies, client_rejected, client_timed_out, client_failed, counts in outcomes:
            latencies.extend(client_latencies)
            rejected += client_rejected
            timed_out += client_timed_out
            failed += client_failed
            for name, count in counts.items():
                per_model[name] = per_model.get(name, 0) + count
        return LoadReport(
            clients=self.clients,
            duration_seconds=duration,
            completed=len(latencies),
            rejected=rejected,
            timed_out=timed_out,
            failed=failed,
            throughput_rps=len(latencies) / max(duration, 1e-9),
            latency=_latency_summary(latencies),
            mode="open" if open_loop else "closed",
            offered_rps=self.arrival_rate_rps,
            per_model=per_model,
        )

    # ------------------------------------------------------------------ #
    def _model_for(self, client: int, index: int) -> Optional[str]:
        if self._schedules is None:
            return None
        return self._schedules[client][index]

    def _submit(self, model: Optional[str], arrays: RequestArrays) -> PendingResponse:
        if model is not None:
            return self.server.submit(model, arrays, timeout_ms=self.timeout_ms)
        return self.server.submit(arrays, timeout_ms=self.timeout_ms)

    def _closed_loop(
        self, client: int
    ) -> Tuple[List[float], int, int, int, Dict[str, int]]:
        latencies: List[float] = []
        rejected = timed_out = failed = 0
        counts: Dict[str, int] = {}
        for index in range(self.requests_per_client):
            arrays = self.make_request(client, index)
            model = self._model_for(client, index)
            submitted = time.monotonic()
            try:
                response = self._submit(model, arrays)
                limit = (
                    None
                    if self.timeout_ms is None
                    else float(self.timeout_ms) / 1e3 + 1.0
                )
                response.result(timeout=limit)
            except ServerOverloadedError:
                rejected += 1
                # Closed-loop backpressure: yield briefly so the queue drains
                # instead of hammering the admission check in a tight spin.
                time.sleep(1e-3)
            except RequestTimeoutError:
                timed_out += 1
            except ServingError:
                failed += 1
            else:
                latencies.append(time.monotonic() - submitted)
                if model is not None:
                    counts[model] = counts.get(model, 0) + 1
        return latencies, rejected, timed_out, failed, counts

    def _open_loop(
        self, client: int
    ) -> Tuple[List[float], int, int, int, Dict[str, int]]:
        """Inject on schedule, collect at the end (see module docstring)."""
        # Each client carries an equal slice of the aggregate rate; client
        # start offsets are staggered so injections spread evenly instead of
        # arriving in lockstep bursts of ``clients``.
        interval = self.clients / float(self.arrival_rate_rps)
        start = time.monotonic() + (client / self.clients) * interval
        pending: List[Tuple[Optional[str], float, PendingResponse]] = []
        latencies: List[float] = []
        rejected = timed_out = failed = 0
        counts: Dict[str, int] = {}
        for index in range(self.requests_per_client):
            delay = start + index * interval - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            arrays = self.make_request(client, index)
            model = self._model_for(client, index)
            submitted = time.monotonic()
            try:
                response = self._submit(model, arrays)
            except ServerOverloadedError:
                rejected += 1
                continue
            except ServingError:
                failed += 1
                continue
            pending.append((model, submitted, response))
        # Collection pass: responses completed while we were still injecting
        # are charged completion-stamp latency, not collection-time latency.
        drain = None if self.timeout_ms is None else float(self.timeout_ms) / 1e3 + 1.0
        for model, submitted, response in pending:
            try:
                response.result(timeout=drain)
            except RequestTimeoutError:
                timed_out += 1
            except ServingError:
                failed += 1
            else:
                completed = (
                    response.completed_at
                    if response.completed_at is not None
                    else time.monotonic()
                )
                latencies.append(completed - submitted)
                if model is not None:
                    counts[model] = counts.get(model, 0) + 1
        return latencies, rejected, timed_out, failed, counts


def warm_up(
    server: Union[ModelServer, RouterHandle],
    arrays: RequestArrays,
    requests: int = 4,
) -> None:
    """Prime a server (JIT-ish first-touch costs, spill restores) before timing.

    Sends ``requests`` sequential requests and discards the responses, so
    lazily allocated buffers and first-touch shard restores are off the
    clock by the time a :class:`LoadGenerator` starts measuring.
    """
    for _ in range(int(requests)):
        server.request(arrays)


__all__ = [
    "LoadGenerator",
    "LoadReport",
    "LoadTarget",
    "RequestFactory",
    "mix_schedule",
    "warm_up",
]
