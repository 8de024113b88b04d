"""Online inference: from a selected model to answered requests.

The paper's pipeline ends when model selection picks a winner; this package
is the production half the ROADMAP asks for — deploying that winner and
serving traffic against it (see ``docs/serving.md``):

* :class:`ModelRegistry` — versioned published checkpoints (the
  training→serving hand-off, in the same ``.npz`` serialization as
  training checkpoints);
* :class:`DynamicBatcher` — the one scheduler behind both front-ends:
  bounded per-queue admission control, deadline expiry, micro-batch
  coalescing under ``max_batch_size`` / a fill window, and the
  weighted-fair pick between queues;
* :class:`Replica` — one servable model copy, fully resident or *spilled*
  (a sharded executor leasing shards through its own
  :class:`~repro.memory.SpillManager`, so over-memory models serve from a
  single device budget);
* :class:`ModelServer` — the scheduler's one-queue case (fill window
  ``max_wait_ms``): a replica pool on the runtime's
  :class:`~repro.runtime.pool.WorkerPool`, with per-request deadlines
  and p50/p95/p99 latency + throughput metrics (a view over the batcher's
  bounded metrics registry);
* :class:`LoadGenerator` — closed-loop and open-loop (fixed arrival rate)
  clients for load tests;
* :class:`FleetRouter` — the same serve path with one queue per model
  (fill window 0, i.e. continuous batching): every published model served
  through **one** replica pool and **one** memory budget, with
  weighted-fair scheduling and Hydra-style whole-model eviction/restore of
  cold models, each member a one-shard executor leasing from the shared
  :class:`~repro.memory.SpillManager` (see ``docs/router.md``).

Exactness is the core contract, inherited from the training side: replicas
run every forward at one fixed compute geometry, so batched responses are
``array_equal`` to unbatched single-request forwards, and spilled replicas
answer bit-identically to resident ones.

The declarative entry points are :mod:`repro.serving.deploy`'s, re-exported
by the front door: :func:`repro.api.serve` builds a server from a model,
:func:`repro.api.serve_fleet` builds a router over a registry's published
models, and ``SelectionResult.deploy`` goes straight from an experiment's
winner (rebuilt via the caller's builder, weights from the registry) to a
running server — or, with ``router=``, into a shared fleet.
"""

from repro.serving.batcher import (
    DynamicBatcher,
    InferenceRequest,
    ModelEntry,
    PendingResponse,
)
from repro.serving.loadgen import LoadGenerator, LoadReport, warm_up
from repro.serving.registry import ModelRegistry, ModelVersion
from repro.serving.replica import Replica
from repro.serving.router import FleetRouter, RouterHandle
from repro.serving.server import ModelServer

__all__ = [
    "DynamicBatcher",
    "FleetRouter",
    "InferenceRequest",
    "LoadGenerator",
    "LoadReport",
    "ModelEntry",
    "ModelRegistry",
    "ModelServer",
    "ModelVersion",
    "PendingResponse",
    "Replica",
    "RouterHandle",
    "warm_up",
]
