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
  served through a one-shard
  :class:`~repro.training.sharded_trainer.ShardedModelExecutor` bound to
  that arena, so it moves *whole* (Hydra-style: models move as units, not
  layer fragments) and only inside its executor's lease, the path a spilled
  replica takes too: hot models stay device-resident, cold models are
  evicted to host memory under pressure (by the manager's one rule: a
  member whose forward has announced its chain is kept, and among the rest
  the least recently served goes) and restored on demand, so the fleet's
  total parameter bytes may exceed the budget;
* **one scheduler** — the :class:`~repro.serving.batcher.DynamicBatcher` a
  server uses, with one queue per model (per-model admission control),
  a fill window of zero (**continuous batching**: unlike a server, which
  may hold a partial batch for up to ``max_wait_ms``, the fleet never
  sleeps on purpose) and the stride-scheduled weighted-fair pick between
  the queues.

**Cold models.**  The scheduler picks an evicted model like any other;
its forward restores the bytes inside the lease.  Arrival at an evicted
model's queue starts that restore in the background (prefetch), so it
overlaps other models' compute.

**Exactness.**  Every model executes at its own fixed compute geometry
(micro-batches padded via :func:`~repro.serving.replica.concat_rows`), and
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
from repro.serving.replica import Replica
from repro.serving.server import RequestArrays, ServingCore
from repro.training.sharded_trainer import ShardedModelExecutor
from repro.utils.logging import log_context

logger = logging.getLogger(__name__)

#: arena name of the fleet's single shared serving device
_FLEET_ARENA = "fleet0"
#: arena capacity standing in for "no budget" (effectively unbounded)
_UNBOUNDED = 1 << 62


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
    override per model.

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
        scrub_evicted: bool = False,
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
        super().__init__(name, replicas, timeout_ms, telemetry, DynamicBatcher())
        self.replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_queue = int(max_queue)
        self.watchdog_interval_s = watchdog_interval_s
        self._budget = None if memory_budget is None else int(memory_budget)
        self._manager = SpillManager(
            {_FLEET_ARENA: self._budget or _UNBOUNDED},
            prefetch=True,
            scrub_evicted=scrub_evicted,
        )
        self._manager.bind_telemetry(self.telemetry, name=f"spill.{name}")
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

        The model is put in ``eval`` mode and served by a one-shard executor
        whose shard, the whole parameter set, is registered against the
        shared budget.  ``weight`` scales its fair share of the pool;
        ``max_batch_size``/``compute_batch_size``/``max_queue`` default to
        the router-wide settings.  The compute geometry must match any
        dedicated server the model's responses are compared against —
        exactness is per-geometry.
        """
        if self._stopped:
            raise ServingError(
                f"router {self.name!r} was stopped; build a new router"
            )
        if self._batcher.entry(name) is not None:
            raise ConfigurationError(
                f"model {name!r} is already registered with router {self.name!r}"
            )
        nbytes = sum(p.data.nbytes for p in model.parameters())
        if self._budget is not None and nbytes > self._budget:
            raise ConfigurationError(
                f"model {name!r} needs {nbytes} bytes but the fleet budget is "
                f"{self._budget}; a model must fit the budget whole"
            )
        executor = ShardedModelExecutor(model, [(0, model.num_blocks())])
        if list(map(id, executor.shard_parameters(0))) != list(map(id, model.parameters())):
            raise ConfigurationError(
                f"model {name!r}: its blocks must own exactly its parameters, "
                "or the fleet would charge and restore the wrong bytes"
            )
        entry = ModelEntry(
            name=name,
            max_batch_size=(
                int(max_batch_size) if max_batch_size is not None else self.max_batch_size
            ),
            max_queue=int(max_queue) if max_queue is not None else self.max_queue,
            weight=float(weight),
            compute_batch_size=compute_batch_size,
            replicas=(Replica(model, executor=executor, name=name),),
        )
        executor.bind_memory(self._manager, model_id=name, device_of=lambda _: _FLEET_ARENA)
        self._batcher.add_entry(entry)
        return entry

    @property
    def models(self) -> List[str]:
        """Registered model names, sorted."""
        return [entry.name for entry in self._batcher.entries()]

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
        # A lock-free state read: prefetch checks it again under the
        # manager's lock, and a restore started now overlaps whatever the
        # workers are computing.
        key = entry.replicas[0].executor.shard_key(0)
        if self._manager.residency(key) is ResidencyState.EVICTED:
            self._manager.prefetch(key)
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

    def metrics(self) -> Dict[str, Any]:
        """Fleet and per-model latency/throughput plus residency counters.

        The ``"models"`` rows carry p50/p95/p99, throughput, batch fill, and
        the failure counters; the ``"fleet"`` row is their sum (latency
        histograms merged) plus the scheduler-wide queue depth.
        ``"residency"`` reports every :class:`~repro.memory.SpillStats`
        counter of the shared budget, ``restores`` (demand fetches plus
        completed prefetches), the budget and occupancy bytes, and which
        models are hot; ``"scheduler"`` reports queue depths and watchdog
        stalls.
        """
        report: Dict[str, Any] = {
            "fleet": self._batcher.outcomes(),
            "models": {name: self._batcher.outcomes(name) for name in self.models},
        }
        spill = self._manager.stats.as_dict()
        report["residency"] = {
            **spill,
            "restores": spill["demand_fetches"] + spill["prefetches_completed"],
            "budget_bytes": self._budget,
            "registered_bytes": self._manager.registered_bytes(),
            "resident_bytes": self._manager.resident_bytes(),
            "resident_models": self.resident_models(),
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

    def _watchdog_loop(self) -> None:
        """Log per-interval progress; flag stalls (queued work, no batches)."""
        with log_context(router=self.name):
            self._watchdog_body()

    def _watchdog_body(self) -> None:
        last_completed = self._batcher.outcomes()["completed"]
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            depths = self.queue_depths
            queued = sum(depths.values())
            completed = self._batcher.outcomes()["completed"]
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
