"""One copy of a deployed model, ready to answer micro-batches.

A :class:`Replica` wraps either

* a fully **resident** model — one ``forward`` under ``no_grad``; or
* a :class:`~repro.training.sharded_trainer.ShardedModelExecutor` bound
  (inference-only) to a :class:`~repro.memory.SpillManager`, whose
  ``forward_only`` leases each shard around its blocks.  A **spilled**
  replica owns its manager, so a model whose parameters exceed a single
  device budget still serves: shards are leased one at a time, restored
  from their host copies on demand, and the next shard prefetches while the
  current one computes.  A fleet member is the one-shard case on the
  fleet's shared manager (:mod:`repro.serving.router`).

**Fixed-geometry execution.**  BLAS kernels choose different blocking for
different batch sizes, so the *same row* run at batch 1 and at batch 32
differs in final-ulp rounding — which would break serving's core contract
(batched responses ``array_equal`` to unbatched ones).  Replicas therefore
run every forward at one canonical geometry: the micro-batch is padded
(by repeating its first row) up to ``pad_to`` rows, and the padding rows
are sliced off the output.  GEMM computes each output row from that input
row and the weights alone, so with the geometry fixed a row's result is
independent of batch position, padding content, and how requests were
coalesced — verified by the serving exactness tests.  The price is that a
lone request pays a full ``pad_to``-row forward; dynamic batching exists
precisely to fill those rows with real work.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import Batch
from repro.exceptions import ConfigurationError, ServingError
from repro.memory import SpillManager
from repro.models.base import ShardableModel
from repro.training.sharded_trainer import ShardedModelExecutor

#: arena name of a spilled replica's single serving device
_SERVE_ARENA = "serve0"
#: eviction policy of a spilled replica's private spill manager
_EVICTION_POLICY = "schedule-aware"


def concat_rows(
    requests: Sequence[Dict[str, np.ndarray]], pad_to: int
) -> Dict[str, np.ndarray]:
    """Stack per-request field arrays into one ``pad_to``-row micro-batch.

    The requests' rows are stacked along axis 0 and the batch is padded to
    exactly ``pad_to`` rows, in one copy.  Padding repeats the first row —
    its content cannot influence the real rows' results (GEMM computes each
    output row from its input row alone), and repeating an existing row
    keeps dtypes and value ranges valid for any downstream layer.  Raises
    when the requests disagree on their fields or hold more than ``pad_to``
    rows.
    """
    fields = requests[0].keys()
    for arrays in requests[1:]:
        if arrays.keys() != fields:
            raise ConfigurationError(
                f"cannot coalesce requests with different fields: "
                f"{sorted(fields)} vs {sorted(arrays.keys())}"
            )
    batch = {}
    for name in fields:
        parts = [arrays[name] for arrays in requests]
        missing = pad_to - sum(map(len, parts))
        if missing < 0:
            raise ConfigurationError(
                f"micro-batch has {pad_to - missing} rows but the compute "
                f"geometry is {pad_to}"
            )
        if missing:
            parts.append(np.repeat(parts[0][:1], missing, axis=0))
        batch[name] = np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]
    return batch


def slice_rows(payload: Any, start: int, stop: int) -> Any:
    """Rows ``start:stop`` of an output structure (array / tensor / tuple)."""
    if isinstance(payload, Tensor):
        return payload.data[start:stop]
    if isinstance(payload, np.ndarray):
        return payload[start:stop]
    if isinstance(payload, (tuple, list)):
        return type(payload)(slice_rows(item, start, stop) for item in payload)
    raise ServingError(
        f"model produced an unsupported output type {type(payload).__name__}; "
        "serving supports tensors, arrays, and tuples/lists of them"
    )


def request_rows(arrays: Dict[str, np.ndarray]) -> int:
    """The (consistent) leading-dimension row count of one request."""
    if len(arrays) == 1:
        (values,) = arrays.values()
        return np.asarray(values).shape[0]
    if not arrays:
        raise ConfigurationError("a request needs at least one field array")
    counts = {name: np.asarray(values).shape[0] for name, values in arrays.items()}
    rows = set(counts.values())
    if len(rows) != 1:
        raise ConfigurationError(
            f"request field arrays disagree on the row count: {counts}"
        )
    return rows.pop()


class Replica:
    """One servable copy of a model (see module docstring).

    Build with :meth:`resident` or :meth:`spilled`; the constructor is the
    shared plumbing.  Constructing a replica puts the model in ``eval``
    mode — serving never trains, and stochastic layers (dropout) must not
    fire.

    Example::

        replica = Replica.resident(model)
        logits = replica.infer({"features": x}, pad_to=8)

    Raises:
        ConfigurationError: for inconsistent request fields or a micro-batch
            larger than ``pad_to``.
    """

    def __init__(
        self,
        model: ShardableModel,
        executor: Optional[ShardedModelExecutor] = None,
        manager: Optional[SpillManager] = None,
        name: str = "replica",
    ):
        self.model = model
        self.executor = executor
        self.manager = manager
        self.name = name
        model.eval()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def resident(cls, model: ShardableModel, name: str = "replica") -> "Replica":
        """A replica whose parameters stay fully device-resident."""
        return cls(model, name=name)

    @classmethod
    def spilled(
        cls,
        model: ShardableModel,
        memory_budget: int,
        scrub_evicted: bool = False,
        name: str = "replica",
        telemetry=None,
    ) -> "Replica":
        """A replica serving from a single ``memory_budget``-byte device arena.

        The model is cut into one shard per block (the finest granularity and
        thus the smallest residency floor) and bound inference-only to a
        private spill manager: no optimizer state is charged, forwards lease
        one shard at a time, and the next shard's restore overlaps the
        current shard's compute.  Responses are bit-identical to a resident
        replica's — restores put the exact parameter bytes back.

        Raises:
            ConfigurationError: if the budget is not positive or smaller
                than the largest shard.
        """
        if memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        executor = ShardedModelExecutor(
            model, [(block, block + 1) for block in range(model.num_blocks())]
        )
        largest = max(
            sum(p.data.nbytes for p in executor.shard_parameters(shard))
            for shard in range(executor.num_shards)
        )
        if largest > memory_budget:
            raise ConfigurationError(
                f"memory_budget {memory_budget} cannot hold the largest shard "
                f"({largest} bytes); raise the budget"
            )
        manager = SpillManager(
            {_SERVE_ARENA: int(memory_budget)},
            policy=_EVICTION_POLICY,
            prefetch=True,
            scrub_evicted=scrub_evicted,
            telemetry=telemetry,
        )
        if telemetry is not None and telemetry.enabled:
            executor.telemetry = telemetry
        executor.bind_memory(manager, model_id=name, device_of=lambda shard: _SERVE_ARENA)
        return cls(model, executor=executor, manager=manager, name=name)

    # ------------------------------------------------------------------ #
    @property
    def is_spilled(self) -> bool:
        """Whether this replica serves through a spill manager of its own."""
        return self.manager is not None

    def infer(
        self, arrays: Dict[str, np.ndarray], pad_to: Optional[int] = None
    ) -> Any:
        """Run one micro-batch and return its output rows.

        ``pad_to`` fixes the compute geometry (see module docstring): the
        micro-batch is padded to exactly that many rows before the forward
        and the padding is sliced off after.  ``None`` runs the raw
        geometry — cheaper for offline use, but responses are then only
        bit-reproducible among equal batch shapes.
        """
        rows = request_rows(arrays)
        padded = arrays if pad_to in (None, rows) else concat_rows([arrays], pad_to)
        batch = Batch(arrays={name: np.asarray(v) for name, v in padded.items()})
        with no_grad():
            if self.executor is not None:
                output = self.executor.forward_only(batch)
            else:
                output = self.model.forward(batch)
        return slice_rows(output, 0, rows)

    def spill_stats(self) -> Dict[str, int]:
        """The spill manager's counters (all zeros for a resident replica)."""
        if self.manager is None:
            return {}
        return self.manager.stats.as_dict()

    def close(self) -> None:
        """Release spill-manager state, restoring evicted shards into the model.

        After closing, the model object holds its true parameters again (an
        evicted shard's canonical bytes live in its host copy until then)
        and the prefetch worker is shut down.  Resident replicas no-op.
        """
        if self.manager is not None:
            self.manager.forget_model(self.name)
            self.manager.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "spilled" if self.is_spilled else "resident"
        return f"Replica({self.name!r}, {kind}, model={self.model.model_name!r})"
