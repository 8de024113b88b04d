"""Cerebro backend: model hopping over fixed data partitions.

Cerebro (Nakandala et al.) shards the *dataset* across workers and hops
models between workers between sub-epochs; data never moves.  This backend
owns the partitioned dataset and adapts the
:class:`~repro.selection.cerebro.CerebroModelHopper` to the generic
protocol: ``builder`` turns a trial into ``(model, optimizer)`` (loaders
come from the backend's partitions), and each ``train_many`` cohort is
hopped together — every model in the cohort sees every partition exactly
once per epoch.

Partitioning is seeded, so the per-worker loaders rebuilt for each cohort
are identical across calls and resumed rungs continue on the same splits.

With ``hop_parallel=True`` the backend owns a thread pool sized to
``num_workers`` and hands it to every hopper it builds, so each sub-epoch's
workers train their hosted models *concurrently* — true hop-parallelism,
numerically identical to serial hopping (each model's update sequence is
unchanged; see :meth:`CerebroModelHopper.train_epoch`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.backend import CohortEngineBackend, TrialHandle
from repro.data.dataset import Dataset
from repro.exceptions import ConfigurationError
from repro.models.base import ShardableModel
from repro.optim.optimizer import Optimizer
from repro.runtime.pool import ThreadWorkerPool, WorkerPool
from repro.selection.cerebro import CerebroModelHopper
from repro.selection.experiment import TrialConfig
from repro.sharding.partitioner import partition_uniform

#: builds the live model and optimizer for one trial
CerebroTrialBuilder = Callable[[TrialConfig], Tuple[ShardableModel, Optimizer]]


@dataclass
class _TrialState:
    model: ShardableModel
    optimizer: Optimizer
    boundaries: Optional[List[Tuple[int, int]]]


class CerebroBackend(CohortEngineBackend):
    """Trains trials for real with Cerebro-style model hopping.

    Example::

        backend = CerebroBackend(dataset, builder=build_model_and_optimizer,
                                 num_workers=2, hop_parallel=True)
        try:
            result = Experiment(space=space, searcher="grid",
                                backend=backend).run()
        finally:
            backend.close()  # releases the hop pool (also runs at GC)

    Raises:
        ConfigurationError: if ``num_workers`` is not positive.
    """

    name = "cerebro"
    resumable = True

    def __init__(
        self,
        dataset: Dataset,
        builder: CerebroTrialBuilder,
        num_workers: int = 2,
        batch_size: int = 32,
        num_shards: Optional[int] = None,
        shuffle: bool = True,
        seed: int = 0,
        hop_parallel: bool = False,
    ):
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        self.dataset = dataset
        self.builder = builder
        self.num_workers = int(num_workers)
        self.batch_size = int(batch_size)
        self.num_shards = num_shards
        self.shuffle = shuffle
        self.seed = int(seed)
        self.hop_parallel = bool(hop_parallel)
        self._hop_pool: Optional[WorkerPool] = None
        self._hop_pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def prepare(self, trial: TrialConfig) -> TrialHandle:
        handle = super().prepare(trial)
        model, optimizer = self.builder(trial)
        boundaries: Optional[List[Tuple[int, int]]] = None
        if self.num_shards is not None:
            boundaries = partition_uniform(model.profile(), self.num_shards)
            handle.annotations.setdefault("num_shards", self.num_shards)
        handle.state = _TrialState(model, optimizer, boundaries)
        handle.annotations.setdefault("model", model.model_name)
        return handle

    def make_driver(self, handles: Sequence[TrialHandle]) -> CerebroModelHopper:
        """Build a hopper with every handle's model registered (and, when
        ``hop_parallel``, the backend's shared worker pool attached)."""
        hopper = CerebroModelHopper(
            self.dataset,
            num_workers=self.num_workers,
            batch_size=self.batch_size,
            shuffle=self.shuffle,
            seed=self.seed,
            pool=self._pool(),
        )
        for handle in handles:
            state: _TrialState = handle.state
            hopper.add_model(
                state.model, state.optimizer, boundaries=state.boundaries,
                model_id=handle.trial_id,
            )
        return hopper

    # ------------------------------------------------------------------ #
    def _pool(self) -> Optional[WorkerPool]:
        """The shared hop pool (one per backend, lazily built), or None.

        Locked: under the concurrent runtime two worker threads can reach
        first use simultaneously, and a double-built pool would leak threads.
        """
        if not self.hop_parallel:
            return None
        with self._hop_pool_lock:
            if self._hop_pool is None:
                self._hop_pool = ThreadWorkerPool(self.num_workers)
            return self._hop_pool

    def close(self) -> None:
        """Shut down the hop pool, if one was created.

        Safe to call between runs: the pool is rebuilt lazily on next use.
        Long-lived processes should call this when done with the backend;
        garbage collection also triggers it as a backstop.
        """
        if self._hop_pool is not None:
            self._hop_pool.shutdown(wait=False)
            self._hop_pool = None

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
