"""Data partitioning for Cerebro-style model selection.

Cerebro shards the *data* across workers and moves models, not data, so
that each model sees every partition once per epoch.
:class:`~repro.api.backends.CerebroBackend` trains over these partitions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.dataset import Dataset, Subset


def partition_dataset(
    dataset: Dataset,
    num_partitions: int,
    shuffle: bool = True,
    seed: Optional[int] = 0,
) -> List[Subset]:
    """Split ``dataset`` into ``num_partitions`` near-equal disjoint subsets.

    Partition sizes differ by at most one example; every example appears in
    exactly one partition.
    """
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    n = len(dataset)
    if num_partitions > n:
        raise ValueError(
            f"cannot split {n} examples into {num_partitions} non-empty partitions"
        )
    indices = np.arange(n)
    if shuffle:
        indices = np.random.default_rng(seed).permutation(n)
    splits = np.array_split(indices, num_partitions)
    return [Subset(dataset, split.tolist()) for split in splits]
