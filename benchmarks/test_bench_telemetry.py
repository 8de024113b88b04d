"""E16 — telemetry overhead: the disabled path must be near-free.

Instrumented call sites are spelled once — an unguarded ``with
tel.span(...)`` / ``begin``–``end`` against the shared no-op
:data:`NULL_TELEMETRY` — so the disabled path costs a method call per site.
This benchmark holds that design to its number, **<3% overhead with
telemetry off**, on the training step:
:meth:`ShardedModelExecutor.train_step` is a thin dispatcher over
``_train_step_impl`` (the uninstrumented body, kept as the reference), so
the disabled-path cost is measurable directly: ``baseline`` times the body,
``off`` times the dispatcher with :data:`NULL_TELEMETRY`, and ``on`` times
it with a live recorder.  The off/baseline ratio is the claim.

The serving loop is reported next to it — closed-loop throughput with
telemetry off and on — but not gated: ``python3 -m bench`` ``serve_single``
owns serving throughput.

Every comparison here is between wall-clock measurements, so all of them
are held by the shared gate (``benchmarks/_harness.py``,
``REPRO_PERF_CHECK=1``): off/baseline >= 0.97, on/baseline >= 0.5, and the
fresh disabled-path steps/sec above the floor of the committed
``benchmarks/BENCH_telemetry.json``.  An ordinary run measures briefly and
prints the table.
"""

from __future__ import annotations

import gc
from pathlib import Path

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.serving import LoadGenerator, ModelServer, Replica, warm_up
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.training import ShardedModelExecutor

from _harness import (
    PERF_CHECK,
    assert_no_regression,
    perf_gate,
    timed_window,
    write_committed,
)
from conftest import print_report

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_telemetry.json"

MLP_BATCH = 64
SERVE_WIDTH = 256
SERVE_CLASSES = 64
COMPUTE_BATCH = 32
CLIENTS = 16

#: the contract: disabled telemetry costs < 3% of the hot path
MAX_OFF_OVERHEAD = 0.03
#: enabled telemetry may cost real time, but not a cliff
MIN_ON_RATIO = 0.5


# --------------------------------------------------------------------------- #
# Train-step workload
# --------------------------------------------------------------------------- #
def _train_setup():
    model = FeedForwardNetwork(FeedForwardConfig.paper_1_2m(), seed=7)
    optimizer = Adam(model.parameters(), lr=1e-3)
    executor = ShardedModelExecutor(model, [(0, 2), (2, 4)])
    rng = np.random.default_rng(13)
    data = ArrayDataset(
        features=rng.normal(size=(MLP_BATCH, 512)).astype(np.float32),
        label=rng.integers(0, 10, size=(MLP_BATCH,)).astype(np.int64),
    )
    batch = next(iter(DataLoader(data, batch_size=MLP_BATCH)))
    return executor, batch, optimizer


def _run_train_benchmark() -> dict:
    # The true disabled-path cost is a few no-op method calls (~1 us)
    # against a multi-ms step, far below machine noise.  Two measures keep
    # the noise out of the ratio: the variants' windows are interleaved
    # round-robin (so load/frequency drift hits all of them alike), and
    # each variant is scored by its fastest *single step* — the minimum of
    # hundreds of per-step timings estimates the true floor far more
    # tightly than any window-average rate.
    rounds, min_seconds = (5, 1.2) if PERF_CHECK else (2, 0.4)
    executor, batch, optimizer = _train_setup()
    live = Telemetry()
    variants = {
        "baseline": (NULL_TELEMETRY, lambda: executor._train_step_impl(batch, optimizer)),
        "off": (NULL_TELEMETRY, lambda: executor.train_step(batch, optimizer)),
        "on": (live, lambda: executor.train_step(batch, optimizer)),
    }
    fastest = {name: float("inf") for name in variants}
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for name, (telemetry, step) in variants.items():
                executor.telemetry = telemetry
                fastest[name] = min(
                    fastest[name], timed_window(step, min_seconds, warmup=1)[1]
                )
            live.drain()  # keep the live buffer flat across rounds
    finally:
        if gc_was_enabled:
            gc.enable()
        executor.telemetry = NULL_TELEMETRY
    return {
        "baseline_steps_per_sec": round(1.0 / fastest["baseline"], 2),
        "off_steps_per_sec": round(1.0 / fastest["off"], 2),
        "on_steps_per_sec": round(1.0 / fastest["on"], 2),
        "off_ratio": round(fastest["baseline"] / fastest["off"], 4),
        "on_ratio": round(fastest["baseline"] / fastest["on"], 4),
    }


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #
def _serve_model() -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=SERVE_WIDTH, hidden_dims=(SERVE_WIDTH, SERVE_WIDTH),
        num_classes=SERVE_CLASSES,
    )
    return FeedForwardNetwork(config, seed=17)


def _serve_throughput(telemetry) -> dict:
    rng = np.random.default_rng(23)
    inputs = rng.normal(size=(64, SERVE_WIDTH)).astype(np.float32)
    requests = 30 if PERF_CHECK else 10
    server = ModelServer(
        [Replica.resident(_serve_model())],
        max_batch_size=COMPUTE_BATCH,
        max_wait_ms=2.0,
        max_queue=4 * CLIENTS,
        telemetry=telemetry,
    )
    with server:
        warm_up(server, inputs[:1], requests=4)
        report = LoadGenerator(
            server,
            lambda client, index: inputs[(client + index) % len(inputs)][None, :],
            clients=CLIENTS,
            requests_per_client=requests,
        ).run()
        metrics = server.metrics()
    record = report.as_dict()
    record["mean_batch_rows"] = metrics["mean_batch_rows"]
    return record


def _run_serving_benchmark() -> dict:
    off = _serve_throughput(None)
    on = _serve_throughput(Telemetry())
    return {
        "throughput_off_rps": round(off["throughput_rps"], 2),
        "throughput_on_rps": round(on["throughput_rps"], 2),
        "mean_batch_rows": round(off["mean_batch_rows"], 2),
    }


def _run_benchmark() -> dict:
    return {
        "train_step": _run_train_benchmark(),
        "serving": _run_serving_benchmark(),
    }


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def results() -> dict:
    """One measurement per run, shared by the report and the gate."""
    return _run_benchmark()


def test_telemetry_off_is_near_free(results):
    """E16: reports (and regenerates) BENCH_telemetry.json; the <3% claim."""
    train, serving = results["train_step"], results["serving"]

    print_report(
        "E16 · telemetry overhead: hotpath train step and serving loop",
        ["path", "baseline", "telemetry off", "telemetry on", "off/baseline"],
        [
            [
                "train step/s",
                f"{train['baseline_steps_per_sec']:.1f}",
                f"{train['off_steps_per_sec']:.1f}",
                f"{train['on_steps_per_sec']:.1f}",
                f"{train['off_ratio']:.3f}",
            ],
            [
                "serving req/s",
                "-",
                f"{serving['throughput_off_rps']:.0f}",
                f"{serving['throughput_on_rps']:.0f}",
                "-",
            ],
        ],
    )

    if PERF_CHECK:
        assert train["off_ratio"] >= 1.0 - MAX_OFF_OVERHEAD, (
            f"disabled telemetry costs {(1 - train['off_ratio']):.1%} of the "
            f"train step (bound: {MAX_OFF_OVERHEAD:.0%})"
        )
        assert train["on_ratio"] >= MIN_ON_RATIO

    write_committed(
        BENCH_PATH,
        {
            "experiment": "E16-telemetry-overhead",
            "results": results,
            "note": (
                "Disabled-path overhead of the telemetry "
                "instrumentation: train_step times the dispatcher "
                "against its uninstrumented body "
                "(_train_step_impl) on the paper's 1.2M-parameter "
                "MLP (2 shards); serving reports closed-loop "
                f"throughput ({CLIENTS} clients) with telemetry "
                "off/on (not gated: bench serve_single owns serving "
                "throughput).  Regenerate with REPRO_PERF_LONG=1."
            ),
        },
    )


@perf_gate
def test_no_regression_versus_committed_json(results):
    """Fresh disabled-path steps/sec must stay above the committed floor."""
    assert_no_regression(
        BENCH_PATH,
        lambda committed: {
            "train_step.off_steps_per_sec":
                committed["results"]["train_step"]["off_steps_per_sec"]
        },
        {"train_step.off_steps_per_sec": results["train_step"]["off_steps_per_sec"]},
    )
