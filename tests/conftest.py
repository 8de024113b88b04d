"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.data import DataLoader, SyntheticSpanDataset, make_classification
from repro.models import BertConfig, FeedForwardConfig, FeedForwardNetwork
from repro.utils.rng import seed_everything

_SHM_DIR = Path("/dev/shm")


def _live_shm_segments() -> set:
    """Names of live POSIX shared-memory segments (Linux-visible ones)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux fallback
        return set()
    return {entry.name for entry in _SHM_DIR.glob("psm_*")}


@pytest.fixture(scope="session", autouse=True)
def _spawn_start_method():
    """Pin the default start method to ``spawn``.

    The runtime always builds its children from an explicit context
    (forkserver, or spawn where there is none); pinning the *default* means
    a test that accidentally reaches the default context cannot fork a live
    test process (inheriting locks and threads mid-flight) and behaves the
    same on every platform.
    """
    multiprocessing.set_start_method("spawn", force=True)
    yield


@pytest.fixture(autouse=True)
def _no_process_or_shm_leaks():
    """Fail any test that leaks live child processes or shm segments.

    Every child the runtime spawns (pool workers, serving replicas) and
    every shared-memory segment it creates is owned by some parent object
    with a ``close``/``shutdown``; a test that returns while children are
    still alive or segments still linked has dropped one of those owners.
    A short grace window absorbs children that are mid-exit.
    """
    children_before = {child.pid for child in multiprocessing.active_children()}
    shm_before = _live_shm_segments()
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaked_children = [
            child for child in multiprocessing.active_children()
            if child.pid not in children_before and child.is_alive()
        ]
        leaked_shm = _live_shm_segments() - shm_before
        if not leaked_children and not leaked_shm:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not leaked_children, (
        f"test leaked live child processes: {leaked_children}"
    )
    assert not leaked_shm, (
        f"test leaked shared-memory segments: {sorted(leaked_shm)}"
    )


@pytest.fixture(autouse=True)
def _seed_global_rng():
    """Every test starts from the same global RNG state."""
    seed_everything(1234)
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def tiny_mlp_config() -> FeedForwardConfig:
    return FeedForwardConfig.tiny(input_dim=16, num_classes=4)


@pytest.fixture
def tiny_mlp(tiny_mlp_config) -> FeedForwardNetwork:
    return FeedForwardNetwork(tiny_mlp_config, seed=3)


@pytest.fixture
def classification_data():
    return make_classification(
        num_samples=96, num_features=16, num_classes=4, rng=np.random.default_rng(11)
    )


@pytest.fixture
def classification_loader(classification_data) -> DataLoader:
    return DataLoader(classification_data, batch_size=16, shuffle=False)


@pytest.fixture
def classification_batch(classification_loader):
    return next(iter(classification_loader))


@pytest.fixture
def tiny_bert_config() -> BertConfig:
    return BertConfig.tiny(vocab_size=64, seq_len=32)


@pytest.fixture
def span_dataset() -> SyntheticSpanDataset:
    return SyntheticSpanDataset(
        num_samples=24, seq_len=32, vocab_size=64, rng=np.random.default_rng(5)
    )


@pytest.fixture
def span_batch(span_dataset):
    return next(iter(DataLoader(span_dataset, batch_size=8)))


@pytest.fixture
def four_gpu_cluster() -> Cluster:
    return Cluster.single_server(4, "v100-16gb")


@pytest.fixture
def two_gpu_cluster() -> Cluster:
    return Cluster.single_server(2, "v100-16gb")


@pytest.fixture
def bert_large_profile():
    return BertConfig.bert_large().profile(seq_len=384)


@pytest.fixture
def mlp_profile():
    return FeedForwardConfig.paper_1_2m().profile()
