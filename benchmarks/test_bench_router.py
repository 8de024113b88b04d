"""E14 — fleet serving: multi-model throughput under one shared budget.

Four trained-shape MLPs serve the same total closed-loop traffic two ways:

* ``sequential`` — one model at a time: each model's clients run against a
  dedicated :class:`~repro.serving.ModelServer` in its own phase, and the
  aggregate throughput divides total completions by the *sum* of phase
  durations.  This is what a single-model serving stack does with a model
  fleet: swap, serve, swap.  The dedicated server gets its strongest shape
  on shared hardware — one resident replica (extra replicas only split a
  closed loop's batches) — but it is *fill-window bound*: one model's
  ``CLIENTS_PER_MODEL`` clients never saturate the ``COMPUTE_BATCH``-row
  geometry, so every batch waits out the full ``max_wait_ms`` window
  before dispatch, and that dead time dominates a sub-millisecond forward.
* ``fleet`` — every model at once through one
  :class:`~repro.serving.FleetRouter`: one replica pool, one spill budget
  sized at ~``BUDGET_MODELS`` of the four models' bytes (cold models evict
  and restore through the shared manager), continuous batching, and a
  uniform traffic mix over all four models.  The router never waits a fill
  window — with four models' queues feeding one pool, *some* model always
  has ready work, so workers dispatch back to back.

Both run forwards at the fixed ``COMPUTE_BATCH``-row geometry, so fleet
responses are **bit-identical** to dedicated-server responses — asserted by
the exactness test below with ``scrub_evicted`` poisoning any restore the
router might skip.  The headline number, policed by the CI ``perf`` job,
is fleet aggregate throughput ≥ 3× the sequential baseline: continuous
batching converts the sequential stack's per-batch fill-window dead time
into served requests, even though the shared budget forces eviction churn
along the way.

Results land in ``benchmarks/BENCH_router.json``; the committed JSON is
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
from repro.serving import (
    FleetRouter,
    LoadGenerator,
    ModelServer,
    Replica,
    warm_up,
)

from conftest import print_report

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_router.json"

WIDTH = 128
CLASSES = 64
COMPUTE_BATCH = 32
FLEET_SIZE = 4
CLIENTS_PER_MODEL = 8
#: router pool workers; the sequential baseline serves one resident
#: replica per dedicated server — its fastest shape for a closed loop
REPLICAS = 2
#: the dedicated server's stock batching window (the serve() default)
MAX_WAIT_MS = 2.0
#: shared device budget, in units of one model's parameter bytes — less
#: than the fleet's total, so serving all four requires eviction churn
BUDGET_MODELS = 3.0
#: harsher budget for the exactness test: maximal eviction churn
EXACTNESS_BUDGET_MODELS = 2.5
#: how long the scheduler may defer a cold model in favour of resident work
#: (higher than the router default: throughput runs tolerate ~COLD_SKIPS
#: batches of extra cold-start latency in exchange for fewer blocked leases)
COLD_SKIPS = 16
#: the contract the CI perf job additionally gates on
MIN_FLEET_SPEEDUP = 3.0

_PERF_CHECK = os.environ.get("REPRO_PERF_CHECK", "") not in ("", "0")
_PERF_LONG = os.environ.get("REPRO_PERF_LONG", "") not in ("", "0")

#: fraction of the committed throughput the perf job requires
PERF_TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.5"))


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
def _model(seed: int) -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=WIDTH, hidden_dims=(WIDTH, WIDTH), num_classes=CLASSES
    )
    return FeedForwardNetwork(config, seed=seed)


def _model_names() -> list:
    return [f"mlp-{index}" for index in range(FLEET_SIZE)]


def _seed(name: str) -> int:
    return 17 + int(name.rsplit("-", 1)[1])


def _inputs(count: int = 64) -> np.ndarray:
    rng = np.random.default_rng(23)
    return rng.normal(size=(count, WIDTH)).astype(np.float32)


def _budget(models: float) -> int:
    one = sum(p.data.nbytes for p in _model(17).parameters())
    return int(one * models)


def _make_router(budget_models: float, scrub: bool = False) -> FleetRouter:
    router = FleetRouter(
        memory_budget=_budget(budget_models),
        replicas=REPLICAS,
        max_batch_size=COMPUTE_BATCH,
        max_queue=8 * CLIENTS_PER_MODEL * FLEET_SIZE,
        max_cold_skips=COLD_SKIPS,
        scrub_evicted=scrub,
        watchdog_interval_s=None,
    )
    for name in _model_names():
        router.add_model(name, _model(_seed(name)))
    return router


def _measure_sequential(requests_per_client: int) -> dict:
    """Each model's traffic in its own phase against a dedicated server."""
    inputs = _inputs()
    completed = rejected = timed_out = 0
    duration = 0.0
    latencies_p99 = []
    for name in _model_names():
        server = ModelServer(
            [Replica.resident(_model(_seed(name)), name=f"{name}/replica0")],
            max_batch_size=COMPUTE_BATCH,
            max_wait_ms=MAX_WAIT_MS,
            max_queue=8 * CLIENTS_PER_MODEL * FLEET_SIZE,
        )
        with server:
            warm_up(server, inputs[:1], requests=4)
            report = LoadGenerator(
                server,
                lambda client, index: inputs[(client + index) % len(inputs)][None, :],
                clients=CLIENTS_PER_MODEL,
                requests_per_client=requests_per_client,
            ).run()
        completed += report.completed
        rejected += report.rejected
        timed_out += report.timed_out
        duration += report.duration_seconds
        latencies_p99.append(report.latency["latency_p99_ms"])
    return {
        "mode": "closed",
        "completed": float(completed),
        "rejected": float(rejected),
        "timed_out": float(timed_out),
        "duration_seconds": duration,
        "throughput_rps": completed / max(duration, 1e-9),
        "latency_p99_ms": max(latencies_p99),
    }


def _measure_fleet(requests_per_client: int) -> dict:
    """All models at once through one router under the shared budget."""
    inputs = _inputs()
    with _make_router(BUDGET_MODELS) as router:
        for name in _model_names():
            warm_up(router.handle(name), inputs[:1], requests=4)
        report = LoadGenerator(
            router,
            lambda client, index: inputs[(client + index) % len(inputs)][None, :],
            clients=CLIENTS_PER_MODEL * FLEET_SIZE,
            requests_per_client=requests_per_client,
            mix={name: 1.0 for name in _model_names()},
        ).run()
        metrics = router.metrics()
    record = report.as_dict()
    record["mean_batch_rows"] = metrics["fleet"]["mean_batch_rows"]
    record["queue_depth_mean"] = metrics["fleet"]["queue_depth_mean"]
    record["evictions"] = metrics["residency"]["evictions"]
    record["restores"] = metrics["residency"]["restores"]
    record["batches"] = metrics["scheduler"]["batches_dispatched"]
    return record


def _run_benchmark() -> dict:
    requests_per_client = 40 if (_PERF_CHECK or _PERF_LONG) else 25
    # Runs last well under a second, so a single sample is at the mercy of
    # whatever else the host is doing; best-of-N measures capability.
    repeats = 3
    results = {
        "sequential": max(
            (_measure_sequential(requests_per_client) for _ in range(repeats)),
            key=lambda record: record["throughput_rps"],
        ),
        "fleet": max(
            (_measure_fleet(requests_per_client) for _ in range(repeats)),
            key=lambda record: record["throughput_rps"],
        ),
    }
    results["fleet"]["speedup_vs_sequential"] = round(
        results["fleet"]["throughput_rps"]
        / results["sequential"]["throughput_rps"],
        2,
    )
    return results


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
def test_fleet_exactness_vs_dedicated_servers():
    """E14 correctness bar: a fleet answer under eviction churn is
    bit-identical to a dedicated single-model server's."""
    inputs = _inputs(count=24)
    references = {}
    for name in _model_names():
        replica = Replica.resident(_model(_seed(name)))
        references[name] = [
            replica.infer({"features": x[None, :]}, pad_to=COMPUTE_BATCH)
            for x in inputs
        ]
    with _make_router(EXACTNESS_BUDGET_MODELS, scrub=True) as router:
        for index, x in enumerate(inputs):
            for name in _model_names():
                got = router.request(name, {"features": x[None, :]})
                assert np.array_equal(got, references[name][index]), (
                    f"{name} diverged from its dedicated server at request {index}"
                )
        evictions = router.metrics()["residency"]["evictions"]
    # The budget (< fleet bytes) must actually have forced churn — otherwise
    # this proved resident-only serving, not eviction-safe serving.
    assert evictions > 0


def test_fleet_throughput_vs_sequential():
    """E14: emits BENCH_router.json; asserts the ≥3x fleet speedup."""
    results = _run_benchmark()
    fleet = results["fleet"]
    sequential = results["sequential"]

    print_report(
        f"E14 · fleet serving: {FLEET_SIZE} models, one pool, "
        f"budget for ~{BUDGET_MODELS:g}",
        ["config", "req/s", "vs sequential", "p99 ms", "rows/batch", "evict/restore"],
        [
            [
                "sequential",
                f"{sequential['throughput_rps']:.0f}",
                "1.0x",
                f"{sequential['latency_p99_ms']:.2f}",
                "-",
                "-",
            ],
            [
                "fleet",
                f"{fleet['throughput_rps']:.0f}",
                f"{fleet['speedup_vs_sequential']:.1f}x",
                f"{fleet['latency_p99_ms']:.2f}",
                f"{fleet['mean_batch_rows']:.1f}",
                f"{fleet['evictions']:.0f}/{fleet['restores']:.0f}",
            ],
        ],
    )

    for name, record in results.items():
        assert record["rejected"] == 0 and record["timed_out"] == 0, (
            f"{name}: load run saw rejections/timeouts; queue sizing is off"
        )
    # Every model's traffic arrived in full and in its mixed share.
    per_model = fleet["per_model"]
    assert set(per_model) == set(_model_names())
    assert len(set(per_model.values())) == 1, per_model

    # The headline contract: one shared pool serving all models at once
    # beats one-model-at-a-time serving >= 3x on the same traffic, even
    # though the budget forces eviction churn along the way.  A wall-clock
    # ratio, so only the perf job holds it; tier-1 keeps the structural
    # checks above.
    if _PERF_CHECK:
        assert fleet["speedup_vs_sequential"] >= MIN_FLEET_SPEEDUP, (
            f"fleet serving is only {fleet['speedup_vs_sequential']:.2f}x the "
            f"sequential baseline (need >= {MIN_FLEET_SPEEDUP}x)"
        )

    if _PERF_LONG or not BENCH_PATH.exists():
        payload = {
            name: {
                key: (round(float(value), 4) if not isinstance(value, (dict, str)) else value)
                for key, value in record.items()
            }
            for name, record in results.items()
        }
        BENCH_PATH.write_text(
            json.dumps(
                {
                    "experiment": "E14-router",
                    "configs": payload,
                    "note": (
                        f"{FLEET_SIZE} {WIDTH}-wide MLPs, "
                        f"{CLIENTS_PER_MODEL} closed-loop clients per model. "
                        "sequential = one dedicated single-replica server "
                        f"per model ({MAX_WAIT_MS:g} ms batching window), "
                        "phases timed back to back; fleet = one FleetRouter "
                        f"({REPLICAS} workers, continuous batching) under a "
                        f"shared budget of {BUDGET_MODELS:g} models' bytes, "
                        f"uniform mix.  Both run the fixed {COMPUTE_BATCH}-"
                        "row geometry, so responses are bit-identical by "
                        "assertion.  The speedup is work conservation: the "
                        "windowed server sleeps out its fill window every "
                        "batch, the router never does.  Regenerate with "
                        "REPRO_PERF_LONG=1."
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
    if fresh["fleet"]["speedup_vs_sequential"] < MIN_FLEET_SPEEDUP:
        failures.append(
            f"fleet speedup {fresh['fleet']['speedup_vs_sequential']:.2f}x "
            f"fell below the {MIN_FLEET_SPEEDUP}x contract"
        )
    assert not failures, "performance regressions: " + "; ".join(failures)
