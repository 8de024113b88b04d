"""From model selection to a load-tested inference server.

Run with:  python examples/serving_deploy.py

The script walks the full production path the serving subsystem adds (see
docs/serving.md):

1. really train three candidate MLPs with Hydra-style shard parallelism,
   publishing every trial's trained weights to a ModelRegistry;
2. deploy the winner behind a dynamically batched replica pool
   (SelectionResult.deploy);
3. send it rounds of concurrent requests from one thread, read the
   server's own metrics, and compare against a *spilled* deployment of the
   same winner serving from an arena that holds only its largest shard —
   responses are bit-identical, by construction and by assertion.

Serving speed is measured by ``python3 -m bench``; the numbers printed here
are the servers' own ``metrics()`` view of the traffic this script sends.
"""

import tempfile

import numpy as np

from repro import run_model_selection
from repro.api import serve
from repro.data import DataLoader, make_classification
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.optim import Adam
from repro.serving import ModelRegistry
from repro.utils import format_table, seed_everything

WIDTHS = (32, 48, 64)
NUM_FEATURES = 24
NUM_CLASSES = 4
ROUNDS = 25
IN_FLIGHT = 16


def drive(server, inputs) -> None:
    """Send ROUNDS rounds of IN_FLIGHT requests, waiting out each round."""
    for round_index in range(ROUNDS):
        pending = [server.submit(inputs[(round_index + i) % len(inputs)][None, :])
                   for i in range(IN_FLIGHT)]
        for response in pending:
            response.result(timeout=30.0)


def make_builder(width: int):
    def build():
        config = FeedForwardConfig(
            input_dim=NUM_FEATURES, hidden_dims=(width, width), num_classes=NUM_CLASSES,
            name=f"mlp-w{width}",
        )
        model = FeedForwardNetwork(config, seed=width)
        data = make_classification(
            num_samples=128, num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
            rng=np.random.default_rng(5),
        )
        loader = DataLoader(data, batch_size=32, shuffle=True, seed=0)
        return model, Adam(model.parameters(), lr=5e-3), loader

    return build


def main() -> None:
    seed_everything(7)
    builders = {f"width-{width}": make_builder(width) for width in WIDTHS}

    print("=== 1. Select: train 3 candidates, publishing weights per trial ===")
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-registry-"))
    result = run_model_selection(builders, num_devices=2, num_epochs=3,
                                 registry=registry)
    rows = [[t.trial_id, f"{t.metric('loss'):.4f}", t.epochs_trained]
            for t in result.ranked()]
    print(format_table(["trial", "final loss", "epochs"], rows))
    best = result.best()
    print(f"winner: {best.trial_id}  (published as version "
          f"{registry.latest_version(best.trial_id)})")

    print("\n=== 2. Deploy the winner and send it traffic ===")
    inputs = np.random.default_rng(3).normal(
        size=(64, NUM_FEATURES)).astype(np.float32)

    server = result.deploy(lambda trial: builders[trial.trial_id]()[0],
                           registry=registry,
                           max_batch_size=16, max_wait_ms=2.0, max_queue=128)
    drive(server, inputs)
    reference = server.request(inputs[:1])
    server.stop()
    # Read after stop(): every completion is recorded by then.
    report = server.metrics()
    assert report["completed"] == ROUNDS * IN_FLIGHT + 1

    print(format_table(
        ["metric", "value"],
        [["completed", int(report["completed"])],
         ["rows/batch", f"{report['mean_batch_rows']:.1f}"],
         ["throughput", f"{report['throughput_rps']:.0f} req/s"],
         ["p50 latency", f"{report['latency_p50_ms']:.2f} ms"],
         ["p95 latency", f"{report['latency_p95_ms']:.2f} ms"],
         ["p99 latency", f"{report['latency_p99_ms']:.2f} ms"]],
    ))

    print("\n=== 3. Same winner, spilled: a budget of one shard at a time ===")
    winner = builders[best.trial_id]()[0]
    registry.load(best.trial_id, winner)
    total = sum(p.data.nbytes for p in winner.parameters())
    # The tightest feasible arena: exactly the largest block's bytes, so at
    # most one of the model's shards is ever device-resident.
    budget = max(
        sum(p.data.nbytes for p in winner.block_parameters(block))
        for block in range(winner.num_blocks())
    )
    print(f"model: {total} parameter bytes; serving arena: {budget} bytes "
          f"({budget / total:.0%})")
    spilled = serve(winner, memory_budget=budget,
                    max_batch_size=16, max_wait_ms=2.0, max_queue=128)
    drive(spilled, inputs)
    spilled_reference = spilled.request(inputs[:1])
    stats = spilled.replicas[0].manager.stats
    spilled.stop()
    spilled_report = spilled.metrics()

    assert np.array_equal(reference, spilled_reference), "spilled must be exact"
    print(f"arena budget: {budget} bytes; evictions: {stats.evictions}; "
          f"bytes fetched: {stats.bytes_fetched}")
    print(f"spilled throughput: {spilled_report['throughput_rps']:.0f} req/s "
          f"(resident: {report['throughput_rps']:.0f} req/s)")
    print("responses bit-identical to the resident deployment: OK")


if __name__ == "__main__":
    main()
