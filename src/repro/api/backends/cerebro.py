"""Cerebro backend: model hopping over fixed data partitions.

Cerebro (Nakandala et al.) shards the *dataset* across workers and hops
models between workers between sub-epochs; data never moves.  On the real
engine the hop is a data-loading order, not a second trainer: this backend
is a :class:`~repro.api.backends.ShardParallelBackend` whose per-trial
loader walks the backend's fixed partitions, so every model sees every
partition exactly once per epoch and the cohort is trained by the one
:class:`~repro.training.sharded_trainer.ShardParallelTrainer` — spilling,
the process-pool snapshot protocol and telemetry included.

Epoch ``e`` visits partitions ``e, e+1, ..., e+W-1 (mod W)`` for every
trial, whatever its cohort position, so a trial's losses do not depend on
which other trials share its cohort (or on ``Experiment.run(workers=N)``).
Partitioning is seeded, so resumed rungs continue on the same splits.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.api.backends.shard_parallel import MemoryBudget, ShardParallelBackend, _TrialState
from repro.data.dataloader import Batch, DataLoader
from repro.data.dataset import Dataset
from repro.data.partition import partition_dataset
from repro.exceptions import ConfigurationError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.selection.experiment import TrialConfig
from repro.sharding.partitioner import partition_uniform

#: builds the live model and optimizer for one trial (data comes from the backend)
CerebroTrialBuilder = Callable[[TrialConfig], Tuple[ShardableModel, Optimizer]]


class _HopLoader:
    """One trial's epoch as a hop over its partition loaders.

    Epoch ``e`` visits partitions ``e, e+1, ...`` (mod ``W``); partition
    ``w``'s loader is seeded ``seed + w``, so it is shuffled by
    ``(seed + w, e)``.  The epoch is read eagerly in :meth:`__iter__`, and
    every partition's batch order is fixed there too, so an iterator never
    observes a later ``set_epoch``.
    """

    def __init__(self, loaders: Sequence[DataLoader]):
        self.loaders = list(loaders)
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        self._epoch = int(epoch)

    def __iter__(self) -> Iterator[Batch]:
        epoch = self._epoch
        self._epoch += 1
        visits = []
        for hop in range(len(self.loaders)):
            loader = self.loaders[(epoch + hop) % len(self.loaders)]
            loader.set_epoch(epoch)
            visits.append(iter(loader))
        return chain.from_iterable(visits)


class CerebroBackend(ShardParallelBackend):
    """Trains trials for real with Cerebro-style model hopping.

    Example::

        backend = CerebroBackend(dataset, builder=build_model_and_optimizer,
                                 num_workers=2)
        result = Experiment(space=space, searcher="grid",
                            backend=backend).run(workers=2)

    Each worker is one simulated device of the shard-parallel engine;
    models are a single shard unless ``num_shards`` says otherwise.
    ``memory_budget`` (bytes per worker, or a ``{"dev0": bytes}`` map) enables
    spilled execution exactly as on :class:`ShardParallelBackend`.

    Raises:
        ConfigurationError: if ``num_workers`` is not positive, or
            ``memory_budget`` is invalid.
    """

    name = "cerebro"

    def __init__(
        self,
        dataset: Dataset,
        builder: CerebroTrialBuilder,
        num_workers: int = 2,
        batch_size: int = 32,
        num_shards: Optional[int] = None,
        shuffle: bool = True,
        seed: int = 0,
        memory_budget: Optional[MemoryBudget] = None,
    ):
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        super().__init__(builder=builder, num_devices=num_workers, num_shards=num_shards,
                         memory_budget=memory_budget)
        self.dataset = dataset
        self.num_workers = int(num_workers)
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.seed = int(seed)
        self.partitions = partition_dataset(
            dataset, self.num_workers, shuffle=shuffle, seed=self.seed
        )

    def _build_state(self, trial: TrialConfig) -> _TrialState:
        model, optimizer = self.builder(trial)
        loader = _HopLoader([
            DataLoader(partition, batch_size=self.batch_size, shuffle=self.shuffle,
                       seed=self.seed + index)
            for index, partition in enumerate(self.partitions)
        ])
        boundaries = partition_uniform(model.profile(), self.num_shards or 1)
        return _TrialState(model, optimizer, loader, boundaries)
