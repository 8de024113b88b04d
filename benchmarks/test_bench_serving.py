"""E13 — online serving: dynamic batching throughput at exact correctness.

One trained-shape MLP serves closed-loop traffic through a
:class:`~repro.serving.ModelServer` under three configurations sharing one
compute geometry (``COMPUTE_BATCH`` rows per forward):

* ``unbatched`` — ``max_batch_size=1``: every request pays a full
  geometry-sized forward alone (the no-batching baseline);
* ``batched`` — ``max_batch_size=COMPUTE_BATCH``: the dynamic batcher
  coalesces the closed-loop clients' requests into full micro-batches;
* ``batched_spilled`` — the batched configuration served by a spilled
  replica whose arena holds ~60 % of the model's parameter bytes.

Because the geometry is fixed, all three answer **bit-identically** — the
benchmark asserts ``array_equal`` between batched and unbatched responses
and between spilled and resident ones, then measures closed-loop
throughput and p50/p95/p99 latency per configuration.  The headline
number, policed by the CI ``perf`` job, is batched throughput ≥ 3× the
unbatched baseline (in practice it is far higher: batching amortises the
fixed-geometry forward across ``COMPUTE_BATCH`` requests).

Results land in ``benchmarks/BENCH_serving.json``; the committed JSON is
only rewritten by an explicit ``REPRO_PERF_LONG=1`` run, and the CI perf
job (``REPRO_PERF_CHECK=1``) fails when fresh throughput drops below
``REPRO_PERF_TOLERANCE`` of the committed numbers (label a PR
``skip-perf`` to opt out).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.serving import LoadGenerator, ModelServer, Replica, warm_up

from conftest import print_report

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"

WIDTH = 256
CLASSES = 64
COMPUTE_BATCH = 32
CLIENTS = 32
#: spilled arena budget as a fraction of the model's parameter bytes
SPILL_FRACTION = 0.6
#: the contract the CI perf job additionally gates on
MIN_BATCHED_SPEEDUP = 3.0

_PERF_CHECK = os.environ.get("REPRO_PERF_CHECK", "") not in ("", "0")
_PERF_LONG = os.environ.get("REPRO_PERF_LONG", "") not in ("", "0")

#: fraction of the committed throughput the perf job requires
PERF_TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.5"))


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def _model() -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=WIDTH, hidden_dims=(WIDTH, WIDTH), num_classes=CLASSES
    )
    return FeedForwardNetwork(config, seed=17)


def _inputs(count: int = 64) -> np.ndarray:
    rng = np.random.default_rng(23)
    return rng.normal(size=(count, WIDTH)).astype(np.float32)


def _spill_budget(model: FeedForwardNetwork) -> int:
    return int(sum(p.data.nbytes for p in model.parameters()) * SPILL_FRACTION)


def _make_server(config: str) -> ModelServer:
    if config == "unbatched":
        return ModelServer(
            [Replica.resident(_model())],
            max_batch_size=1,
            compute_batch_size=COMPUTE_BATCH,
            max_wait_ms=0.0,
            max_queue=4 * CLIENTS,
        )
    if config == "batched":
        replica = Replica.resident(_model())
    elif config == "batched_spilled":
        model = _model()
        replica = Replica.spilled(
            model, memory_budget=_spill_budget(model), name="bench-spilled"
        )
    else:  # pragma: no cover - defensive
        raise ValueError(config)
    return ModelServer(
        [replica],
        max_batch_size=COMPUTE_BATCH,
        max_wait_ms=2.0,
        max_queue=4 * CLIENTS,
    )


def _measure(config: str, requests_per_client: int) -> dict:
    inputs = _inputs()
    with _make_server(config) as server:
        warm_up(server, inputs[:1], requests=4)
        report = LoadGenerator(
            server,
            lambda client, index: inputs[(client + index) % len(inputs)][None, :],
            clients=CLIENTS,
            requests_per_client=requests_per_client,
        ).run()
        server_metrics = server.metrics()
    record = report.as_dict()
    record["mean_batch_rows"] = server_metrics["mean_batch_rows"]
    return record


def _exactness_responses(config: str, inputs: np.ndarray) -> list:
    with _make_server(config) as server:
        handles = [server.submit(x[None, :]) for x in inputs]
        return [handle.result(timeout=30.0) for handle in handles]


def _run_benchmark() -> dict:
    requests_per_client = 40 if (_PERF_CHECK or _PERF_LONG) else 15
    results = {}
    for config in ("unbatched", "batched", "batched_spilled"):
        results[config] = _measure(config, requests_per_client)
    results["batched"]["speedup_vs_unbatched"] = round(
        results["batched"]["throughput_rps"] / results["unbatched"]["throughput_rps"], 2
    )
    results["batched_spilled"]["speedup_vs_unbatched"] = round(
        results["batched_spilled"]["throughput_rps"]
        / results["unbatched"]["throughput_rps"],
        2,
    )
    return results


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
def test_serving_exactness_batched_vs_unbatched_vs_spilled():
    """E13 correctness bar: one geometry, bit-identical responses everywhere."""
    inputs = _inputs(count=48)
    unbatched = _exactness_responses("unbatched", inputs)
    batched = _exactness_responses("batched", inputs)
    spilled = _exactness_responses("batched_spilled", inputs)

    reference = Replica.resident(_model())
    for index, x in enumerate(inputs):
        expected = reference.infer({"features": x[None, :]}, pad_to=COMPUTE_BATCH)
        assert np.array_equal(batched[index], expected), "batched response diverged"
        assert np.array_equal(unbatched[index], expected), "unbatched response diverged"
        assert np.array_equal(spilled[index], expected), "spilled response diverged"


def test_serving_throughput_and_latency():
    """E13: emits BENCH_serving.json; asserts the ≥3x batching speedup."""
    results = _run_benchmark()

    rows = []
    for name, record in results.items():
        rows.append([
            name,
            f"{record['throughput_rps']:.0f}",
            f"{record.get('speedup_vs_unbatched', 1.0):.1f}x",
            f"{record['latency_p50_ms']:.2f}",
            f"{record['latency_p95_ms']:.2f}",
            f"{record['latency_p99_ms']:.2f}",
            f"{record['mean_batch_rows']:.1f}",
        ])
    print_report(
        "E13 · online serving: closed-loop throughput and latency by batching config",
        ["config", "req/s", "vs unbatched", "p50 ms", "p95 ms", "p99 ms", "rows/batch"],
        rows,
    )

    for name, record in results.items():
        assert record["rejected"] == 0 and record["timed_out"] == 0, (
            f"{name}: load run saw rejections/timeouts; queue sizing is off"
        )
        assert record["latency_p99_ms"] >= record["latency_p50_ms"]

    # The headline contract: dynamic batching buys >= 3x throughput at
    # bit-identical correctness (asserted by the exactness test above).
    # A wall-clock ratio, so only the perf job holds it; tier-1 keeps the
    # structural checks around it.
    if _PERF_CHECK:
        assert results["batched"]["speedup_vs_unbatched"] >= MIN_BATCHED_SPEEDUP, (
            f"batched serving is only "
            f"{results['batched']['speedup_vs_unbatched']:.2f}x the unbatched "
            f"baseline (need >= {MIN_BATCHED_SPEEDUP}x)"
        )
    # Batching must actually be happening, not just winning by accident.
    assert results["batched"]["mean_batch_rows"] > 2.0

    if _PERF_LONG or not BENCH_PATH.exists():
        payload = {
            name: {key: round(float(value), 4) for key, value in record.items()}
            for name, record in results.items()
        }
        BENCH_PATH.write_text(
            json.dumps(
                {
                    "experiment": "E13-serving",
                    "configs": payload,
                    "note": (
                        f"Closed-loop load ({CLIENTS} clients) against one "
                        f"replica of a {WIDTH}-wide 3-layer MLP; every config "
                        f"runs forwards at the fixed {COMPUTE_BATCH}-row "
                        "geometry, so responses are bit-identical across "
                        "configs by assertion.  batched_spilled serves through "
                        f"a spill manager holding {SPILL_FRACTION:.0%} of the "
                        "parameter bytes.  Regenerate with REPRO_PERF_LONG=1."
                    ),
                },
                indent=2,
            )
            + "\n"
        )


@pytest.mark.skipif(not _PERF_CHECK, reason="perf gate runs with REPRO_PERF_CHECK=1")
def test_no_regression_versus_committed_json():
    """CI perf gate: fresh throughput must stay within tolerance of the JSON."""
    committed = json.loads(BENCH_PATH.read_text())["configs"]
    fresh = _run_benchmark()
    failures = []
    for name, record in committed.items():
        floor = record["throughput_rps"] * PERF_TOLERANCE
        measured = fresh[name]["throughput_rps"]
        if measured < floor:
            failures.append(
                f"{name}: {measured:.0f} req/s < {floor:.0f} "
                f"({PERF_TOLERANCE:.0%} of committed {record['throughput_rps']:.0f})"
            )
    if fresh["batched"]["speedup_vs_unbatched"] < MIN_BATCHED_SPEEDUP:
        failures.append(
            f"batched speedup {fresh['batched']['speedup_vs_unbatched']:.2f}x "
            f"fell below the {MIN_BATCHED_SPEEDUP}x contract"
        )
    assert not failures, "performance regressions: " + "; ".join(failures)
