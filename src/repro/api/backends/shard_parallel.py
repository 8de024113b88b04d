"""Real-training backend: Hydra-style shard-parallel interleaving.

``builder`` turns a trial into a live ``(model, optimizer, dataloader)``
triple on the numpy engine.  The model is partitioned with
:func:`partition_uniform` (one shard per block by default, capped at the
device count) and cohorts of trials are trained *together* by a
:class:`~repro.training.sharded_trainer.ShardParallelTrainer`, so a grid of
candidates shares the simulated devices at shard-task granularity — the
paper's execution model, now behind the generic backend protocol.

Model/optimizer state lives on the trial handle between calls, which makes
the backend resumable: successive halving's later rungs continue training
the surviving models in place.

With ``memory_budget`` set the backend becomes *spill-aware*: a shared
:class:`~repro.memory.SpillManager` (one arena per simulated device) makes
every trial's executors lease shards instead of assuming residency, so
models whose resident footprint exceeds the per-device budget — or cohorts
whose total exceeds all budgets combined — still train, bit-identically to
the unconstrained run (see ``docs/memory.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.backend import ExecutionBackend, TrialHandle
from repro.data.dataloader import DataLoader
from repro.exceptions import ConfigurationError
from repro.memory import SpillManager
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.selection.experiment import TrialConfig
from repro.serving.registry import ModelRegistry
from repro.sharding.partitioner import partition_uniform
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.sharded_trainer import ShardParallelTrainer

#: builds the live training objects for one trial
TrialBuilder = Callable[[TrialConfig], Tuple[ShardableModel, Optimizer, DataLoader]]

#: bytes per device — one number for all devices, or a ``{"dev0": bytes}`` map
MemoryBudget = Union[int, Dict[str, int]]


@dataclass
class _TrialState:
    model: ShardableModel
    optimizer: Optimizer
    loader: DataLoader
    boundaries: List[Tuple[int, int]]


class ShardParallelBackend(ExecutionBackend):
    """Trains trials for real with shard-parallel multi-model interleaving.

    Example::

        def build(trial):  # -> (model, optimizer, loader) on the numpy engine
            model = FeedForwardNetwork(config_for(trial), seed=0)
            return model, Adam(model.parameters()), DataLoader(data)

        backend = ShardParallelBackend(builder=build, num_devices=2)
        Experiment(space=space, searcher="grid", backend=backend).run()

    ``memory_budget`` (bytes per device, or a ``{"dev0": bytes}`` map over
    arenas ``dev0 .. dev{num_devices-1}``) enables spilled execution:
    trials lease shards through a shared :class:`~repro.memory.SpillManager`
    and idle shards are evicted to host memory under pressure.
    ``eviction_policy`` is ``"lru"`` or ``"schedule-aware"``; ``prefetch``
    overlaps the next shard's restore with the current shard's compute.

    A cohort trains together in one :meth:`make_driver` trainer; epoch
    numbers continue from what the cohort has already trained, so shuffling
    differs between resumed rungs (cohorts are rung-aligned).

    ``registry`` (a :class:`~repro.serving.ModelRegistry`) publishes every
    trial's final parameters — under the trial id, with its last metrics and
    epoch count as metadata — when the trial is retired, *after* any
    evicted shards are restored.  That is the hand-off
    ``SelectionResult.deploy`` loads the winner's weights from.

    Raises:
        ConfigurationError: if ``num_devices`` is not positive, or the
            memory-budget options are invalid.
    """

    name = "shard-parallel"
    resumable = True

    def __init__(
        self,
        builder: TrialBuilder,
        num_devices: int = 2,
        num_shards: Optional[int] = None,
        memory_budget: Optional[MemoryBudget] = None,
        eviction_policy: str = "schedule-aware",
        prefetch: bool = True,
        registry: Optional[ModelRegistry] = None,
    ):
        if num_devices <= 0:
            raise ConfigurationError(f"num_devices must be positive, got {num_devices}")
        self.builder = builder
        self.num_devices = int(num_devices)
        self.num_shards = num_shards
        self.registry = registry
        self._memory_budget = memory_budget
        #: the ``SpillManager`` keyword arguments, kept so an unpickled
        #: copy rebuilds the same manager
        self._spill_options = {"policy": eviction_policy, "prefetch": prefetch}
        self.memory = self._make_spill_manager()

    def _make_spill_manager(self) -> Optional[SpillManager]:
        memory_budget = self._memory_budget
        if memory_budget is None:
            return None
        names = [f"dev{i}" for i in range(self.num_devices)]
        if isinstance(memory_budget, dict):
            unknown = set(memory_budget) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"memory_budget names unknown devices {sorted(unknown)}; "
                    f"this backend has {names}"
                )
            budgets = {name: int(memory_budget.get(name, 0)) for name in names}
            missing = [name for name, budget in budgets.items() if budget <= 0]
            if missing:
                raise ConfigurationError(
                    f"memory_budget must cover every device with a positive "
                    f"budget; missing/invalid: {missing}"
                )
        else:
            budgets = {name: int(memory_budget) for name in names}
        return SpillManager(budgets, **self._spill_options)

    def set_telemetry(self, telemetry) -> None:
        """Attach a recorder and wire it into the owned spill manager."""
        super().set_telemetry(telemetry)
        if self.memory is not None:
            self.memory.bind_telemetry(self.telemetry, name="spill.train")

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the spill manager (its threads are per-process).

        An attached recorder is dropped too (it holds locks); the child
        falls back to the class-level no-op unless the task re-wires one.
        """
        state = dict(self.__dict__)
        state["memory"] = None
        state.pop("telemetry", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Rebuild the spill manager from the recorded memory options."""
        self.__dict__.update(state)
        self.memory = self._make_spill_manager()

    def close(self) -> None:
        """Release the spill manager's prefetch worker (no-op without one).

        Construction with ``memory_budget`` starts a background transfer
        thread; call this when the backend is done.
        """
        if self.memory is not None:
            self.memory.close()

    def __del__(self):  # pragma: no cover - GC backstop for the prefetch worker
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def _build_state(self, trial: TrialConfig) -> _TrialState:
        """The trial's live objects, partitioned for this backend's devices."""
        model, optimizer, loader = self.builder(trial)
        shard_count = self.num_shards
        if shard_count is None:
            shard_count = min(model.num_blocks(), self.num_devices)
        boundaries = partition_uniform(model.profile(), shard_count)
        return _TrialState(model, optimizer, loader, boundaries)

    def prepare(self, trial: TrialConfig) -> TrialHandle:
        handle = super().prepare(trial)
        state = handle.state = self._build_state(trial)
        handle.annotations.setdefault("model", state.model.model_name)
        handle.annotations.setdefault("num_shards", len(state.boundaries))
        return handle

    def train(self, handle: TrialHandle, epochs: int) -> Dict[str, float]:
        return self.train_many([handle], epochs)[handle.trial_id]

    def train_many(
        self, handles: Sequence[TrialHandle], epochs: int
    ) -> Dict[str, Dict[str, float]]:
        if not handles:
            return {}
        driver = self.make_driver(handles)
        base_epoch = handles[0].epochs_trained
        metrics: Dict[str, Dict[str, float]] = {}
        tel = self.telemetry
        trial_ids = [handle.trial_id for handle in handles]
        for offset in range(epochs):
            with tel.span(
                "epoch", cat="training", epoch=base_epoch + offset, trials=trial_ids
            ):
                metrics = driver.train_epoch(base_epoch + offset)
        return {handle.trial_id: dict(metrics[handle.trial_id]) for handle in handles}

    def make_driver(self, handles: Sequence[TrialHandle]) -> ShardParallelTrainer:
        """Build the engine driver with every handle's model registered."""
        trainer = ShardParallelTrainer(
            num_devices=self.num_devices,
            memory_manager=self.memory,
            telemetry=self.telemetry,
        )
        for handle in handles:
            state: _TrialState = handle.state
            trainer.add_model(
                state.model, state.optimizer, state.loader, state.boundaries,
                model_id=handle.trial_id,
            )
        return trainer

    # ------------------------------------------------------------------ #
    # Snapshot protocol (process-pool trial transport)
    # ------------------------------------------------------------------ #
    def save_snapshot(self, handle: TrialHandle, directory: str) -> str:
        """Checkpoint the trial's full training state; return the path.

        Called in a worker child after training: live models and optimizers
        cannot cross the process boundary, so the trial comes home as a
        checkpoint archive (``param::`` + ``opt::`` sections via
        :func:`~repro.training.checkpoint.save_checkpoint`, plus the
        ``model_name`` a registry records).  Evicted shards are restored
        first (the spill manager is asked to forget the model), so the
        archive holds the true trained parameters, never the NaN-scrubbed
        or stale arrays of an evicted shard.
        """
        state: _TrialState = handle.state
        if self.memory is not None:
            self.memory.forget_model(handle.trial_id)
        path = save_checkpoint(
            state.model,
            Path(directory) / f"{handle.trial_id}-e{handle.epochs_trained}.npz",
            metadata={"model_name": state.model.model_name},
            optimizer=state.optimizer,
        )
        return str(path)

    def finalize_snapshot(self, handle: TrialHandle) -> None:
        """Turn a :meth:`save_snapshot` path back into live training state.

        The builder reconstructs the architecture and the checkpoint
        restores the trained model *and* optimizer — bit-identical resume in
        a pool child.  Live state is left as it is.
        """
        snapshot = handle.state
        if isinstance(snapshot, (str, Path)):
            state = handle.state = self._build_state(handle.trial)
            load_checkpoint(state.model, snapshot, optimizer=state.optimizer)

    def teardown(self, handle: TrialHandle) -> None:
        """Release the trial's live objects and its spill-manager bookkeeping.

        Evicted shards are restored into the model first, so a caller who
        kept a reference to the trial's model sees its true parameters —
        and so the registry (when configured) publishes the *trained*
        weights, not an evicted shard's leftover arrays.  A process-pool trial
        arrives holding its final snapshot path, and the registry publishes
        straight from that archive: no model is rebuilt in this process.
        """
        if self.memory is not None:
            self.memory.forget_model(handle.trial_id)
        # Failed trials (fault-tolerant runtime) publish nothing: their
        # parameters are torn mid-training, and a later registry.load would
        # silently serve them as if they were the trial's trained weights.
        state = handle.state
        if self.registry is not None and handle.failure is None and state is not None:
            metadata = {"epochs_trained": handle.epochs_trained}
            metadata.update(
                {f"metric::{name}": value for name, value in handle.last_metrics.items()}
            )
            source = state if isinstance(state, (str, Path)) else state.model
            self.registry.publish(handle.trial_id, source, metadata=metadata)
        super().teardown(handle)
