"""E12 — spilled execution: throughput and peak device bytes vs resident.

One model (uniform square MLP, 4 shards over 2 devices) trains full
optimisation steps through :class:`ShardedModelExecutor` /
:class:`ShardParallelTrainer`, once fully resident and once per *spill
fraction* — the per-device :class:`~repro.memory.DeviceArena` budget as a
fraction of the device's resident need (``1.0`` = everything fits, ``0.55``
= barely one shard at a time, maximum pressure).  For each configuration
the benchmark records steps/sec, the arena's peak bytes, and the spill
traffic, and asserts the subsystem's two contracts:

* **exactness** — the loss trajectory at every spill fraction is
  bit-identical (``array_equal``) to the resident baseline, always;
* **bounded memory** — peak device bytes never exceed the arena budget,
  and every spilled configuration peaks strictly below the resident need.

Both hold on any machine and are asserted on every run.  The wall-clock
side — spilled throughput stays above ``MIN_SPILL_THROUGHPUT`` of resident,
and fresh steps/sec stay above the floor of the committed
``benchmarks/BENCH_memory.json`` — is held by the shared gate
(``benchmarks/_harness.py``, ``REPRO_PERF_CHECK=1``).
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.memory import SpillManager
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.training import ShardedModelExecutor

from _harness import (
    PERF_CHECK,
    assert_no_regression,
    perf_gate,
    timed_window,
    write_committed,
)
from conftest import print_report

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_memory.json"

WIDTH = 128
BATCH = 32
NUM_SHARDS = 4
NUM_DEVICES = 2
BOUNDARIES = [(0, 1), (1, 2), (2, 3), (3, 4)]
#: arena budget as a fraction of the per-device resident need; 1.0 spills
#: nothing, 0.55 holds barely one of a device's two (uniform) shards
FRACTIONS = (1.0, 0.75, 0.55)

#: floor on spilled throughput relative to resident, held by the gate
#: (host "transfers" are in-process memcpys here, so the overhead is copy +
#: bookkeeping, not PCIe)
MIN_SPILL_THROUGHPUT = 0.10


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def _model() -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=WIDTH, hidden_dims=(WIDTH,) * 3, num_classes=WIDTH
    )
    return FeedForwardNetwork(config, seed=7)


def _batches(count: int = 4):
    rng = np.random.default_rng(13)
    data = ArrayDataset(
        features=rng.normal(size=(BATCH * count, WIDTH)).astype(np.float32),
        label=rng.integers(0, WIDTH, size=(BATCH * count,)).astype(np.int64),
    )
    return list(DataLoader(data, batch_size=BATCH))


def _shard_nbytes(executor: ShardedModelExecutor, optimizer: Adam) -> list:
    sizes = []
    for shard in range(executor.num_shards):
        params = executor.shard_parameters(shard)
        sizes.append(
            sum(p.data.nbytes for p in params)
            + sum(p.data.size for p in params) * optimizer.state_bytes_per_parameter
        )
    return sizes


def _device_resident_need(sizes: list) -> int:
    """Max over devices of the resident bytes its round-robin shards need."""
    per_device = [0] * NUM_DEVICES
    for shard, nbytes in enumerate(sizes):
        per_device[shard % NUM_DEVICES] += nbytes
    return max(per_device)


def _run_config(fraction, steps: int, measure_seconds: float):
    """Train ``steps`` fixed batches; then measure steps/sec over a window.

    Returns ``(steps_per_sec, peak_device_bytes, losses, spill_counters)``.
    ``fraction=None`` is the fully resident baseline (no manager); its peak
    is the per-device resident need itself.
    """
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    executor = ShardedModelExecutor(model, BOUNDARIES)
    sizes = _shard_nbytes(executor, optimizer)
    need = _device_resident_need(sizes)
    manager = None
    if fraction is not None:
        budget = int(need * fraction)
        manager = SpillManager(
            {f"dev{i}": budget for i in range(NUM_DEVICES)},
            prefetch=True,
        )
        executor.bind_memory(
            manager, optimizer,
            device_of=lambda shard: f"dev{shard % NUM_DEVICES}",
        )
    batches = _batches()

    losses = [
        executor.train_step(batches[step % len(batches)], optimizer)
        for step in range(steps)
    ]

    upcoming = itertools.count()
    steps_per_sec, _ = timed_window(
        lambda: executor.train_step(batches[next(upcoming) % len(batches)], optimizer),
        measure_seconds,
    )

    if manager is None:
        peak = need
        counters = {"evictions": 0, "bytes_fetched": 0, "bytes_evicted": 0}
    else:
        peak = max(arena.peak_bytes for arena in manager.arenas.values())
        stats = manager.stats.as_dict()
        counters = {
            "evictions": stats["evictions"],
            "bytes_fetched": stats["bytes_fetched"],
            "bytes_evicted": stats["bytes_evicted"],
        }
        manager.close()
    return steps_per_sec, int(peak), np.asarray(losses), counters


def _run_benchmark() -> dict:
    steps, measure_seconds = 8, (2.0 if PERF_CHECK else 0.4)
    results = {}
    resident_sps, resident_peak, resident_losses, _ = _run_config(
        None, steps, measure_seconds
    )
    results["resident"] = {
        "steps_per_sec": round(resident_sps, 2),
        "peak_device_bytes": resident_peak,
        "throughput_vs_resident": 1.0,
        "evictions": 0,
        "bytes_fetched": 0,
        "bytes_evicted": 0,
        "losses": resident_losses,
    }
    for fraction in FRACTIONS:
        sps, peak, losses, counters = _run_config(fraction, steps, measure_seconds)
        results[f"budget_{fraction:.2f}"] = {
            "steps_per_sec": round(sps, 2),
            "peak_device_bytes": peak,
            "throughput_vs_resident": round(sps / resident_sps, 3),
            "losses": losses,
            **counters,
        }
    return results


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def results() -> dict:
    """One measurement per run, shared by the report and the gate."""
    return _run_benchmark()


def test_memory_throughput_and_peak_bytes(results):
    """E12: reports (and regenerates) BENCH_memory.json; exactness + bounded memory."""
    resident = results["resident"]

    rows, payload = [], {}
    for name, record in results.items():
        payload[name] = {k: v for k, v in record.items() if k != "losses"}
        rows.append([
            name,
            f"{record['steps_per_sec']:.1f}",
            f"{record['throughput_vs_resident']:.2f}x",
            f"{record['peak_device_bytes'] / 1024:.0f}",
            str(record["evictions"]),
            f"{record['bytes_fetched'] / 1024:.0f}",
        ])
    print_report(
        "E12 · spilled execution: throughput and peak device bytes vs resident",
        ["config", "steps/s", "vs resident", "peak KiB", "evictions", "fetched KiB"],
        rows,
    )

    # Exactness: every spill fraction reproduces the resident trajectory
    # bit for bit — the subsystem's core contract, asserted on any machine.
    for name, record in results.items():
        assert np.array_equal(record["losses"], resident["losses"]), (
            f"{name}: spilled losses diverged from the resident baseline"
        )

    # Bounded memory: budgets are respected and spilling buys real headroom.
    need = resident["peak_device_bytes"]
    for fraction in FRACTIONS:
        record = results[f"budget_{fraction:.2f}"]
        assert record["peak_device_bytes"] <= int(need * fraction)
        if fraction < 1.0:
            assert record["peak_device_bytes"] < need
            assert record["evictions"] > 0, (
                f"budget fraction {fraction} should force evictions"
            )
    # Full budget spills nothing.
    assert results["budget_1.00"]["evictions"] == 0

    if PERF_CHECK:
        for fraction in FRACTIONS:
            record = results[f"budget_{fraction:.2f}"]
            assert record["throughput_vs_resident"] >= MIN_SPILL_THROUGHPUT

    write_committed(
        BENCH_PATH,
        {
            "experiment": "E12-memory",
            "configs": payload,
            "note": (
                "One step = forward + backward + Adam update of a "
                f"4-shard uniform MLP (width {WIDTH}, batch {BATCH}) on "
                f"{NUM_DEVICES} arenas; budget_F caps each arena at F x "
                "the device's resident need.  Loss trajectories are "
                "bit-identical across all configs by assertion.  "
                "Regenerate with REPRO_PERF_LONG=1."
            ),
        },
    )


@perf_gate
def test_no_regression_versus_committed_json(results):
    """Fresh steps/sec must stay above the floor of the committed numbers."""
    assert_no_regression(
        BENCH_PATH,
        lambda committed: {
            name: record["steps_per_sec"]
            for name, record in committed["configs"].items()
        },
        {name: record["steps_per_sec"] for name, record in results.items()},
    )
