"""E11 — hot-path overhaul: steps/sec and peak step memory, before vs after.

Measures one full optimisation step (forward, backward, optimizer update)
for the two real workloads the repo trains — the paper's ~1.2 M-parameter
MLP and a scaled-down BERT-style transformer (hidden 128, 2 layers,
sequence 128: the same shape family as the paper's BERT fine-tuning
workload) — each both unsharded and through :class:`ShardedModelExecutor`.

``BEFORE`` holds the numbers measured at the pre-overhaul commit on the
reference container (same shapes, same methodology: best wall-clock window
of repeated runs, ``tracemalloc`` peak for one step).  Every run re-measures
the current tree and asserts the large peak-memory reduction (an allocation
ratio, true on any machine).  The wall-clock claims are held by the shared
gate (``benchmarks/_harness.py``, ``REPRO_PERF_CHECK=1``): the transformer
training step is at least ``MIN_SPEEDUP``x faster than the seed (the
committed JSON shows >= 2.5x), and fresh steps/sec stay above the floor of
the committed ``benchmarks/BENCH_hotpath.json`` after-numbers.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import BertConfig, BertForSpanPrediction, FeedForwardConfig, FeedForwardNetwork
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

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"

MLP_BATCH = 64
BERT_BATCH = 8
BERT_SEQ = 128
BERT_VOCAB = 256

#: Pre-overhaul numbers, measured at the seed commit on the reference
#: container with this file's workloads and ``_measure`` methodology
#: (best of repeated >=3 s windows; ``tracemalloc`` peak over one step).
BEFORE = {
    "mlp_single": {"steps_per_sec": 54.87, "peak_step_bytes": 29325504},
    "mlp_sharded": {"steps_per_sec": 52.90, "peak_step_bytes": 29457088},
    "transformer_single": {"steps_per_sec": 5.04, "peak_step_bytes": 93541356},
    "transformer_sharded": {"steps_per_sec": 5.19, "peak_step_bytes": 94066308},
}

#: Floor on the transformer speedup.  BEFORE holds absolute numbers from the
#: reference container, so a throughput ratio against them only means
#: something on comparable hardware: a wall-clock claim, held by the gate.
MIN_SPEEDUP = 1.5


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def _mlp():
    return FeedForwardNetwork(FeedForwardConfig.paper_1_2m(), seed=7)


def _mlp_batch():
    rng = np.random.default_rng(13)
    data = ArrayDataset(
        features=rng.normal(size=(MLP_BATCH, 512)).astype(np.float32),
        label=rng.integers(0, 10, size=(MLP_BATCH,)).astype(np.int64),
    )
    return next(iter(DataLoader(data, batch_size=MLP_BATCH)))


def _transformer():
    config = BertConfig(
        vocab_size=BERT_VOCAB, hidden_size=128, num_layers=2, num_heads=4,
        intermediate_size=512, max_seq_len=BERT_SEQ, dropout=0.0,
        name="bert-hotpath",
    )
    return BertForSpanPrediction(config, seed=7)


def _transformer_batch():
    rng = np.random.default_rng(13)
    data = ArrayDataset(
        input_ids=rng.integers(0, BERT_VOCAB, size=(BERT_BATCH, BERT_SEQ)).astype(np.int64),
        attention_mask=np.ones((BERT_BATCH, BERT_SEQ), dtype=bool),
        start_position=rng.integers(0, BERT_SEQ, size=(BERT_BATCH,)).astype(np.int64),
        end_position=rng.integers(0, BERT_SEQ, size=(BERT_BATCH,)).astype(np.int64),
    )
    return next(iter(DataLoader(data, batch_size=BERT_BATCH)))


def _whole_step(model, batch, optimizer):
    loss = model.loss_on_batch(batch)
    model.zero_grad()
    loss.backward()
    optimizer.step()
    return loss.item()


def _workloads():
    """name -> zero-argument step callable (fresh model + optimizer each)."""
    mlp, mlp_batch = _mlp(), _mlp_batch()
    mlp_opt = Adam(mlp.parameters(), lr=1e-3)

    mlp_sharded = _mlp()
    mlp_sharded_opt = Adam(mlp_sharded.parameters(), lr=1e-3)
    mlp_executor = ShardedModelExecutor(mlp_sharded, [(0, 2), (2, 4)])

    tf, tf_batch = _transformer(), _transformer_batch()
    tf_opt = Adam(tf.parameters(), lr=1e-4)

    tf_sharded = _transformer()
    tf_sharded_opt = Adam(tf_sharded.parameters(), lr=1e-4)
    tf_executor = ShardedModelExecutor(tf_sharded, [(0, 1), (1, 3), (3, 4)])

    return {
        "mlp_single": lambda: _whole_step(mlp, mlp_batch, mlp_opt),
        "mlp_sharded": lambda: mlp_executor.train_step(mlp_batch, mlp_sharded_opt),
        "transformer_single": lambda: _whole_step(tf, tf_batch, tf_opt),
        "transformer_sharded": lambda: tf_executor.train_step(tf_batch, tf_sharded_opt),
    }


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def _measure(step, warmup: int, min_seconds: float, repeats: int) -> float:
    """Best steps/sec over ``repeats`` wall-clock windows of >= ``min_seconds``."""
    return max(timed_window(step, min_seconds, warmup)[0] for _ in range(repeats))


def _peak_bytes(step) -> int:
    """tracemalloc peak across one step (after a warm-up step)."""
    step()
    tracemalloc.start()
    step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _run_benchmark() -> dict:
    # The perf job pays for longer windows; the tier-1 run stays quick.
    if PERF_CHECK:
        kwargs = {"warmup": 2, "min_seconds": 3.0, "repeats": 3}
    else:
        kwargs = {"warmup": 2, "min_seconds": 0.5, "repeats": 1}
    results = {}
    for name, step in _workloads().items():
        results[name] = {
            "steps_per_sec": round(_measure(step, **kwargs), 2),
            "peak_step_bytes": _peak_bytes(step),
        }
    return results


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def measured() -> dict:
    """One measurement per run, shared by the report and the gate."""
    return _run_benchmark()


def test_hotpath_speedup_and_memory(measured):
    """E11: reports (and regenerates) BENCH_hotpath.json; asserts the wins."""
    rows = []
    payload = {}
    for name in BEFORE:
        before_sps = BEFORE[name]["steps_per_sec"]
        after_sps = measured[name]["steps_per_sec"]
        speedup = after_sps / before_sps
        before_peak = BEFORE[name]["peak_step_bytes"]
        after_peak = measured[name]["peak_step_bytes"]
        payload[name] = {
            "before_steps_per_sec": before_sps,
            "after_steps_per_sec": after_sps,
            "speedup": round(speedup, 2),
            "before_peak_step_bytes": before_peak,
            "after_peak_step_bytes": after_peak,
            "peak_memory_ratio": round(after_peak / before_peak, 3),
        }
        rows.append([
            name,
            f"{before_sps:.2f}",
            f"{after_sps:.2f}",
            f"{speedup:.2f}x",
            f"{before_peak / 2**20:.1f}",
            f"{after_peak / 2**20:.1f}",
        ])
    print_report(
        "E11 · hot-path overhaul: training-step throughput and peak step memory",
        ["workload", "before st/s", "after st/s", "speedup",
         "before MiB", "after MiB"],
        rows,
    )

    # Peak step memory dropped sharply on every workload — tracemalloc
    # counts allocations, so this holds on any machine.
    for name, record in payload.items():
        assert record["peak_memory_ratio"] <= 0.8, (
            f"{name}: peak memory only dropped to {record['peak_memory_ratio']:.2f}x"
        )
    # Headline acceptance: the transformer training step (the paper's heavy
    # workload) is >= MIN_SPEEDUP faster, sharded and unsharded.
    if PERF_CHECK:
        for name in ("transformer_single", "transformer_sharded"):
            assert payload[name]["speedup"] >= MIN_SPEEDUP, (
                f"{name}: {payload[name]['speedup']:.2f}x < {MIN_SPEEDUP}x"
            )
        # The MLP also gained materially on reference hardware.
        assert payload["mlp_single"]["speedup"] >= 1.1

    write_committed(
        BENCH_PATH,
        {
            "experiment": "E11-hotpath",
            "workloads": payload,
            "note": (
                "before = seed commit on the reference container; "
                "after = this tree.  One step = forward + backward + "
                "Adam update at fixed shapes (MLP 1.2M params/batch 64; "
                "transformer hidden 128/seq 128/batch 8).  Regenerate "
                "with REPRO_PERF_LONG=1."
            ),
        },
    )


@perf_gate
def test_no_regression_versus_committed_json(measured):
    """Fresh steps/sec must stay above the floor of the committed after-numbers."""
    assert_no_regression(
        BENCH_PATH,
        lambda committed: {
            name: record["after_steps_per_sec"]
            for name, record in committed["workloads"].items()
        },
        {name: record["steps_per_sec"] for name, record in measured.items()},
    )
