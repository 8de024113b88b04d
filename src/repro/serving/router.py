"""Fleet routing: one replica pool and one memory budget for many models.

A :class:`FleetRouter` is the multi-model counterpart of
:class:`~repro.serving.server.ModelServer` — the paper's framing (many
models sharing one memory budget) carried to the inference side.  Both are
the same :class:`~repro.serving.server.ServingCore`; one router owns, for
*every* published model it serves:

* **one replica pool** — ``replicas`` worker threads on the runtime's
  :class:`~repro.runtime.pool.WorkerPool`, each repeatedly asking the
  scheduler for ``(model, micro-batch)`` work;
* **one spill budget** — a single :class:`~repro.memory.SpillManager`
  arena that all models' parameters are charged against.  Each model is
  registered *whole* (Hydra-style: models move as units, not layer
  fragments): hot models stay device-resident, cold models are evicted to
  the host cache under pressure and restored on demand, so the fleet's
  total parameter bytes may exceed the budget;
* **one scheduler** — the :class:`~repro.serving.batcher.DynamicBatcher` a
  server uses, with one queue per model (per-model admission control),
  a fill window of zero (**continuous batching**: unlike a server, which
  may hold a partial batch for up to ``max_wait_ms``, the fleet never
  sleeps on purpose) and the stride-scheduled weighted-fair pick between
  the queues.

**Cold models.**  Serving an evicted model means restoring its bytes
first, so the scheduler prefers hot work while a restore is in flight (see
:mod:`repro.serving.batcher`): the router answers its "is this queue
cold?" from the shared manager's residency, kicks off the deferred model's
restore in the background (prefetch), and the scheduler's skip counter
serves the cold model unconditionally after at most ``max_cold_skips``
deferrals.  Arrival at an evicted model's queue also triggers a prefetch,
so restores overlap other models' compute.

**Exactness.**  Every model executes at its own fixed compute geometry
(micro-batches padded via :func:`~repro.serving.replica.pad_rows`), and
evict/restore round-trips are bit-exact, so a fleet answer is
``array_equal`` to a dedicated single-model :class:`ModelServer` at the
same geometry — whether the model happened to be resident or evicted.

A watchdog thread (SGLang-style) observes the scheduler from outside:
every ``watchdog_interval_s`` it logs per-batch throughput and queue
depths, and flags a stall when requests are queued but no batch completed
over a whole interval.
"""

from __future__ import annotations

import logging
import threading
from typing import Any, Dict, List, Optional

from repro.exceptions import ConfigurationError, ServingError
from repro.memory import ResidencyState, SpillManager
from repro.serving.batcher import DynamicBatcher, ModelEntry, PendingResponse
from repro.serving.process import ModelSpec, ProcessReplica
from repro.serving.replica import Replica
from repro.serving.server import RequestArrays, ServingCore
from repro.serving.stats import ServerStats
from repro.utils.logging import log_context

logger = logging.getLogger(__name__)

#: arena name of the fleet's single shared serving device
_FLEET_ARENA = "fleet0"
#: arena capacity standing in for "no budget" (effectively unbounded)
_UNBOUNDED = 1 << 62


class RouterHandle:
    """A single-model view of a router, API-compatible with a server.

    ``handle = router.handle("mlp-a")`` gives load generators and client
    code the familiar ``submit``/``request`` surface without threading the
    model name through every call.
    """

    def __init__(self, router: "FleetRouter", model: str):
        self.router = router
        self.model = model

    def submit(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> PendingResponse:
        """Enqueue one request for this handle's model."""
        return self.router.submit(self.model, arrays, timeout_ms=timeout_ms)

    def request(
        self, arrays: RequestArrays, timeout_ms: Optional[float] = None
    ) -> Any:
        """Synchronous convenience: submit then wait for the rows."""
        return self.router.request(self.model, arrays, timeout_ms=timeout_ms)

    def metrics(self, window_seconds: Optional[float] = None) -> Dict[str, float]:
        """This model's latency/throughput snapshot."""
        return self.router.stats.for_model(self.model).snapshot(
            window_seconds=window_seconds
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RouterHandle({self.model!r} on {self.router.name!r})"


class FleetRouter(ServingCore):
    """Serves every registered model through one pool and one budget.

    Example::

        router = FleetRouter(memory_budget=budget, replicas=2)
        router.add_model("mlp-a", model_a)
        router.add_model("mlp-b", model_b, weight=2.0)
        with router:
            logits = router.request("mlp-a", {"features": x})
            report = router.metrics()

    ``memory_budget`` (bytes) bounds the models' combined device residency;
    ``None`` keeps every model resident.  ``max_batch_size`` / ``max_queue``
    / ``timeout_ms`` are fleet-wide defaults that :meth:`add_model` can
    override per model.  ``max_cold_skips`` bounds how often the scheduler
    may defer an evicted model in favour of resident work.

    Raises:
        ConfigurationError: for invalid counts/budgets, unknown or duplicate
            model names, or a model larger than the budget.
        ServingError: from the request path when the router is not running.
        ServerOverloadedError: when the target model's queue is full.
    """

    _kind = "router"

    def __init__(
        self,
        memory_budget: Optional[int] = None,
        replicas: int = 2,
        max_batch_size: int = 8,
        max_queue: int = 64,
        timeout_ms: Optional[float] = None,
        eviction_policy: str = "lru",
        prefetch: bool = True,
        scrub_evicted: bool = False,
        spill_dir: Optional[str] = None,
        max_cold_skips: int = 3,
        watchdog_interval_s: Optional[float] = 5.0,
        name: str = "fleet",
        telemetry=None,
    ):
        if replicas <= 0:
            raise ConfigurationError(f"replicas must be positive, got {replicas}")
        if max_batch_size <= 0:
            raise ConfigurationError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        if max_queue <= 0:
            raise ConfigurationError(f"max_queue must be positive, got {max_queue}")
        if memory_budget is not None and memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        if max_cold_skips < 0:
            raise ConfigurationError(
                f"max_cold_skips must be >= 0, got {max_cold_skips}"
            )
        super().__init__(
            name, replicas, timeout_ms, telemetry,
            DynamicBatcher(max_cold_skips=max_cold_skips, is_cold=self._is_cold),
        )
        self.replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_queue = int(max_queue)
        self.max_cold_skips = int(max_cold_skips)
        self.watchdog_interval_s = watchdog_interval_s
        self._budget = None if memory_budget is None else int(memory_budget)
        self._manager = SpillManager(
            {_FLEET_ARENA: self._budget or _UNBOUNDED},
            policy=eviction_policy,
            prefetch=prefetch,
            spill_dir=spill_dir,
            scrub_evicted=scrub_evicted,
            telemetry=self.telemetry,
        )
        self.stats = ServerStats()
        self._stalls = 0
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #
    def add_model(
        self,
        name: str,
        model: Any,
        weight: float = 1.0,
        max_batch_size: Optional[int] = None,
        compute_batch_size: Optional[int] = None,
        max_queue: Optional[int] = None,
    ) -> ModelEntry:
        """Register one model with the fleet (before or while serving).

        The model is put in ``eval`` mode and its whole parameter set is
        registered against the shared budget.  ``weight`` scales its fair
        share of the pool; ``max_batch_size``/``compute_batch_size``/
        ``max_queue`` default to the router-wide settings.  The compute
        geometry must match any dedicated server the model's responses are
        compared against — exactness is per-geometry.

        ``model`` may also be a :class:`~repro.serving.process.ModelSpec`:
        the entry is then served by a :class:`~repro.serving.process.
        ProcessReplica` — forwards run in a dedicated child process that
        mmaps the spec's registry weights read-only.  Process entries are
        never charged to the fleet budget (their bytes live in the shared
        page cache, not the serving arena) and are always "hot" to the
        scheduler.
        """
        if self._stopped:
            raise ServingError(
                f"router {self.name!r} was stopped; build a new router"
            )
        if self._batcher.entry(name) is not None:
            raise ConfigurationError(
                f"model {name!r} is already registered with router {self.name!r}"
            )
        if isinstance(model, ModelSpec):
            # Child spawns lazily; it inherits the router's telemetry flag so
            # its forward spans flow back through the reply channel.
            replica = ProcessReplica(model, name=name, telemetry=self.telemetry)
            nbytes, key = 0, None
        else:
            replica = Replica.resident(model, name=name)
            nbytes, key = sum(p.data.nbytes for p in model.parameters()), (name, 0)
            if self._budget is not None and nbytes > self._budget:
                raise ConfigurationError(
                    f"model {name!r} needs {nbytes} bytes but the fleet budget is "
                    f"{self._budget}; a model must fit the budget whole"
                )
        entry = ModelEntry(
            name=name,
            max_batch_size=(
                int(max_batch_size) if max_batch_size is not None else self.max_batch_size
            ),
            max_queue=int(max_queue) if max_queue is not None else self.max_queue,
            weight=float(weight),
            compute_batch_size=compute_batch_size,
            replicas=(replica,),
            key=key,
        )
        if key is not None:
            self._manager.register(
                key,
                _FLEET_ARENA,
                nbytes,
                lambda: [p.data for p in model.parameters()],
            )
        # The model's own collector (a zeroed row in reports from day one)
        # and the fleet's: every outcome lands in both.
        entry.stats = (self.stats.for_model(name), self.stats.fleet)
        self._batcher.add_entry(entry)
        return entry

    @property
    def models(self) -> List[str]:
        """Registered model names, sorted."""
        return [entry.name for entry in self._batcher.entries()]

    def handle(self, model: str) -> RouterHandle:
        """A server-shaped view of one model (for load generators, clients)."""
        self._entry(model)
        return RouterHandle(self, model)

    def resident_models(self) -> List[str]:
        """Models whose parameters are currently on the serving device."""
        return [key[0] for key in self._manager.resident_keys()]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "FleetRouter":
        """Start the worker pool (and watchdog); models may be added later."""
        if self._running:
            return self
        super().start()
        if self.watchdog_interval_s is not None and self.watchdog_interval_s > 0:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name=f"{self.name}-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the router; with ``drain`` (default) queued requests finish."""
        try:
            super().stop(drain)
        finally:
            self._watchdog_stop.set()
            if self._watchdog is not None:
                self._watchdog.join(timeout=5.0)
                self._watchdog = None

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model: str,
        arrays: RequestArrays,
        timeout_ms: Optional[float] = None,
    ) -> PendingResponse:
        """Enqueue one request for ``model`` and return its response handle.

        Admission control is **per model**: a full queue for one model
        rejects that model's traffic only — the rest of the fleet keeps
        accepting.  Arrival at an evicted model's queue kicks off its
        restore in the background so the bytes travel while other models
        compute.
        """
        entry = self._entry(model)
        response = self._submit(entry, arrays, timeout_ms)
        # Outside the scheduler lock: the manager has its own locking, and a
        # restore started now overlaps whatever the workers are computing.
        # Process-backed entries have no residency to manage.
        if (
            entry.key is not None
            and self._manager.residency(entry.key) is ResidencyState.EVICTED
        ):
            self._manager.prefetch(entry.key)
        return response

    def request(
        self,
        model: str,
        arrays: RequestArrays,
        timeout_ms: Optional[float] = None,
    ) -> Any:
        """Synchronous convenience: :meth:`submit` then wait for the rows."""
        return self._await(self.submit(model, arrays, timeout_ms=timeout_ms), timeout_ms)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def queue_depths(self) -> Dict[str, int]:
        """Requests currently waiting, per model."""
        return {entry.name: len(entry.requests) for entry in self._batcher.entries()}

    def metrics(self, window_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Fleet and per-model latency/throughput plus residency counters.

        The ``"fleet"`` and ``"models"`` sections carry p50/p95/p99,
        throughput, batch fill, and the failure counters; ``"residency"``
        reports the shared budget's evictions/restores and which models are
        hot; ``"scheduler"`` reports queue depths and watchdog stalls.
        """
        report: Dict[str, Any] = self.stats.snapshot(window_seconds=window_seconds)
        spill = self._manager.stats.as_dict()
        report["residency"] = {
            "budget_bytes": self._budget,
            "registered_bytes": self._manager.registered_bytes(),
            "resident_bytes": self._manager.resident_bytes(),
            "resident_models": self.resident_models(),
            "evictions": spill["evictions"],
            "restores": spill["demand_fetches"] + spill["prefetches_completed"],
            "bytes_evicted": spill["bytes_evicted"],
            "bytes_fetched": spill["bytes_fetched"],
        }
        report["scheduler"] = {
            "queue_depths": self.queue_depths,
            "batches_dispatched": self._batcher.batches_dispatched,
            "stalls": self._stalls,
        }
        return report

    # ------------------------------------------------------------------ #
    def _entry(self, model: str) -> ModelEntry:
        entry = self._batcher.entry(model)
        if entry is None:
            raise ConfigurationError(
                f"router {self.name!r} has no model {model!r}; "
                f"registered: {self.models or 'none'}"
            )
        return entry

    def _is_cold(self, entry: ModelEntry) -> bool:
        """The scheduler's question: would serving ``entry`` wait on a restore?"""
        return (
            entry.key is not None
            and self._manager.residency(entry.key) is not ResidencyState.RESIDENT
        )

    def _watchdog_loop(self) -> None:
        """Log per-interval progress; flag stalls (queued work, no batches)."""
        with log_context(router=self.name):
            self._watchdog_body()

    def _watchdog_body(self) -> None:
        last_completed = self.stats.fleet.completed
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            depths = self.queue_depths
            queued = sum(depths.values())
            completed = self.stats.fleet.completed
            progressed = completed - last_completed
            last_completed = completed
            if queued and progressed == 0:
                self._stalls += 1  # this thread is the only writer
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "router.stall", cat="serving",
                        router=self.name, queued=queued,
                    )
                logger.warning(
                    "router=%s watchdog: no progress for %.1fs with %d queued "
                    "(queues=%s resident=%s)",
                    self.name,
                    self.watchdog_interval_s,
                    queued,
                    depths,
                    self.resident_models(),
                )
            else:
                logger.debug(
                    "router=%s watchdog: +%d completed (%.0f rps), queued=%d, resident=%s",
                    self.name,
                    progressed,
                    progressed / self.watchdog_interval_s,
                    queued,
                    self.resident_models(),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        budget = "unbounded" if self._budget is None else f"{self._budget}B"
        return (
            f"FleetRouter({self.name!r}, models={self.models}, "
            f"replicas={self.replicas}, budget={budget})"
        )
