"""``serve`` / ``serve_fleet`` — declarative online inference.

Import them as ``repro.api.serve`` / ``repro.api.serve_fleet``.  One call
turns a (trained) model into a running
:class:`~repro.serving.ModelServer`: replica construction, sharding and
spill-manager plumbing for over-memory models, and batching configuration
all happen here, mirroring how ``ShardParallelBackend(memory_budget=...)``
hides the training-side spill wiring.  :func:`serve_fleet` does the same for a
*registry*: every published model behind one
:class:`~repro.serving.FleetRouter` sharing one replica pool and one memory
budget.  ``SelectionResult.deploy`` composes these with the
:class:`~repro.serving.ModelRegistry` to go from an experiment's winner to
a server — or into a shared fleet — in one step (see ``docs/serving.md``
and ``docs/router.md``).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.models.base import ShardableModel
from repro.serving.process import ModelSpec, ProcessReplica
from repro.serving.registry import ModelRegistry
from repro.serving.replica import Replica
from repro.serving.router import FleetRouter
from repro.serving.server import ModelServer

#: what ``serve`` accepts: a live model, a zero-argument factory that
#: builds one fresh copy per replica, or a picklable
#: :class:`~repro.serving.process.ModelSpec` (required for process replicas)
ModelSource = Union[ShardableModel, Callable[[], ShardableModel]]


def serve(
    model: ModelSource,
    replicas: int = 1,
    max_batch_size: int = 8,
    max_wait_ms: float = 2.0,
    max_queue: int = 64,
    timeout_ms: Optional[float] = None,
    compute_batch_size: Optional[int] = None,
    memory_budget: Optional[int] = None,
    num_shards: Optional[int] = None,
    eviction_policy: str = "schedule-aware",
    prefetch: bool = True,
    spill_dir: Optional[str] = None,
    name: str = "server",
    start: bool = True,
    replica_mode: str = "thread",
    telemetry=None,
) -> ModelServer:
    """Deploy ``model`` behind a dynamically batched replica pool.

    ``model`` is a live :class:`~repro.models.base.ShardableModel` — shared
    read-only by every replica — or a zero-argument factory called once per
    replica (required when replicas must not share parameter arrays, e.g.
    spilled serving with more than one replica).

    ``replica_mode="process"`` serves through
    :class:`~repro.serving.process.ProcessReplica` children instead of
    threads — true parallel forwards past the GIL.  ``model`` must then be
    a :class:`~repro.serving.process.ModelSpec`; each child builds the
    model itself and mmaps the spec's registry weights read-only, so N
    replicas share one physical copy of the parameter bytes through the
    page cache.  Responses are bit-identical to thread replicas at the same
    geometry.  Process replicas never spill (``memory_budget`` is
    rejected); a :class:`ModelSpec` with ``replica_mode="thread"`` is also
    accepted and built in-process, once per replica.

    ``memory_budget`` (bytes) opts each replica into *spilled* serving: the
    model is cut into ``num_shards`` shards (default: one per block) and
    served through a private :class:`~repro.memory.SpillManager` whose
    single arena holds ``memory_budget`` bytes — over-memory models answer
    bit-identically to resident ones from a bounded device footprint.

    The remaining knobs configure the :class:`~repro.serving.ModelServer`:
    ``max_batch_size``/``max_wait_ms`` bound the dynamic batcher,
    ``max_queue`` bounds admission, ``timeout_ms`` sets the default
    per-request deadline, and ``compute_batch_size`` fixes the execution
    geometry (default ``max_batch_size``) — servers sharing weights and
    geometry answer bit-identically regardless of batching.

    With ``start=True`` (default) the server is already running; use it as
    a context manager or call ``stop()`` when done.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry` recorder) traces
    submit→batch→forward spans and registers the server's latency stats as
    a snapshot collector; process replicas flush their child-side spans
    back with each reply.  ``None`` keeps the no-op recorder.

    Example::

        server = serve(model, max_batch_size=8, max_wait_ms=2.0)
        logits = server.request({"features": x})
        server.stop()

    Raises:
        ConfigurationError: for invalid counts/budgets, or ``replicas > 1``
            with ``memory_budget`` but no model factory (spilled replicas
            each need their own parameter copy).
    """
    if replicas <= 0:
        raise ConfigurationError(f"replicas must be positive, got {replicas}")
    if replica_mode not in ("thread", "process"):
        raise ConfigurationError(
            f"replica_mode must be 'thread' or 'process', got {replica_mode!r}"
        )
    factory: Optional[Callable[[], ShardableModel]] = None
    if replica_mode == "process":
        if not isinstance(model, ModelSpec):
            raise ConfigurationError(
                "process replicas need a ModelSpec (live models cannot cross "
                "a process boundary); pass serve(ModelSpec(...), "
                "replica_mode='process')"
            )
        if memory_budget is not None:
            raise ConfigurationError(
                "process replicas do not spill: their weights are read-only "
                "mmaps shared through the page cache; drop memory_budget or "
                "use replica_mode='thread'"
            )
    elif isinstance(model, ModelSpec):
        factory = model.build
    elif callable(model) and not isinstance(model, ShardableModel):
        factory = model
    elif memory_budget is not None and replicas > 1:
        raise ConfigurationError(
            "spilled serving with multiple replicas needs a model factory: "
            "each replica's spill manager evicts/restores its own parameter "
            "arrays, so replicas cannot share one model object — pass "
            "serve(lambda: build_model(), ...) instead of a live model"
        )

    built = []
    for index in range(replicas):
        replica_name = f"{name}/replica{index}"
        if replica_mode == "process":
            built.append(ProcessReplica(model, name=replica_name, telemetry=telemetry))
            continue
        instance = factory() if factory is not None else model
        if memory_budget is not None:
            built.append(
                Replica.spilled(
                    instance,
                    memory_budget=memory_budget,
                    num_shards=num_shards,
                    eviction_policy=eviction_policy,
                    prefetch=prefetch,
                    spill_dir=spill_dir,
                    name=replica_name,
                    telemetry=telemetry,
                )
            )
        else:
            built.append(Replica.resident(instance, name=replica_name))

    server = ModelServer(
        built,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        max_queue=max_queue,
        timeout_ms=timeout_ms,
        compute_batch_size=compute_batch_size,
        name=name,
        telemetry=telemetry,
    )
    return server.start() if start else server


def serve_fleet(
    registry: ModelRegistry,
    builder: Callable[[str], ShardableModel],
    models: Optional[Sequence[str]] = None,
    weights: Optional[Dict[str, float]] = None,
    memory_budget: Optional[int] = None,
    replicas: int = 2,
    max_batch_size: int = 8,
    max_queue: int = 64,
    timeout_ms: Optional[float] = None,
    compute_batch_size: Optional[int] = None,
    eviction_policy: str = "lru",
    prefetch: bool = True,
    spill_dir: Optional[str] = None,
    max_cold_skips: int = 3,
    name: str = "fleet",
    start: bool = True,
    replica_mode: str = "thread",
    telemetry=None,
) -> FleetRouter:
    """Serve a registry's published models through one shared fleet router.

    ``builder(model_name)`` constructs a fresh model of the right
    architecture for each name; the registry then loads that name's latest
    published weights into it (bit-exact), and the model joins the router.
    ``models`` restricts/orders the fleet (default: every published name);
    ``weights`` sets per-model fair-share weights (default 1.0 each).

    ``memory_budget`` (bytes) is the **fleet-wide** device budget: the
    models' combined parameter bytes may exceed it, in which case cold
    models are evicted whole to the host cache and restored on demand —
    every model must fit the budget individually.  ``None`` keeps the whole
    fleet resident.

    The batching knobs are router-wide defaults; per-model overrides go
    through :meth:`~repro.serving.FleetRouter.add_model` on the returned
    router (models may be added while it serves).  With ``start=True``
    (default) the router is already running; use it as a context manager or
    call ``stop()`` when done.

    ``replica_mode="process"`` serves each model from its own child
    process: the deploy pins each name's **latest published version**, and
    every child builds its model via ``builder(model_name)`` (which must be
    a picklable, module-level callable) and mmaps that version's archive
    read-only.  Process fleets ignore the device budget machinery — their
    memory story is the shared page cache — so ``memory_budget`` is
    rejected.

    Example::

        router = serve_fleet(registry, lambda name: build_model(name),
                             memory_budget=budget, replicas=2)
        logits = router.request("mlp-a", {"features": x})
        router.stop()

    Raises:
        ConfigurationError: for an empty fleet, a ``weights``/``models``
            mismatch, or a model larger than ``memory_budget``.
        CheckpointError: for names without a published version.
    """
    if replica_mode not in ("thread", "process"):
        raise ConfigurationError(
            f"replica_mode must be 'thread' or 'process', got {replica_mode!r}"
        )
    if replica_mode == "process" and memory_budget is not None:
        raise ConfigurationError(
            "a process fleet does not use the device budget: each model's "
            "weights are read-only mmaps shared through the page cache; drop "
            "memory_budget or use replica_mode='thread'"
        )
    chosen = list(models) if models is not None else registry.names()
    if not chosen:
        raise ConfigurationError(
            "serve_fleet needs at least one model; the registry has none "
            "published and models=... named none"
        )
    weights = dict(weights or {})
    unknown = sorted(set(weights) - set(chosen))
    if unknown:
        raise ConfigurationError(
            f"weights name models not in the fleet: {unknown}; fleet: {sorted(chosen)}"
        )
    router = FleetRouter(
        memory_budget=memory_budget,
        replicas=replicas,
        max_batch_size=max_batch_size,
        max_queue=max_queue,
        timeout_ms=timeout_ms,
        eviction_policy=eviction_policy,
        prefetch=prefetch,
        spill_dir=spill_dir,
        max_cold_skips=max_cold_skips,
        name=name,
        telemetry=telemetry,
    )
    for model_name in chosen:
        if replica_mode == "process":
            # Pin the latest version *now*: the fleet serves one immutable
            # archive per model for its whole life, even if training keeps
            # publishing newer versions behind it.
            member = ModelSpec(
                builder=functools.partial(builder, model_name),
                registry_root=str(registry.root),
                registry_name=model_name,
                version=registry.latest_version(model_name),
            )
        else:
            member = builder(model_name)
            registry.load(model_name, member)
        router.add_model(
            model_name,
            member,
            weight=weights.get(model_name, 1.0),
            compute_batch_size=compute_batch_size,
        )
    return router.start() if start else router
