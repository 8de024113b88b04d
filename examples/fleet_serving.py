"""A model fleet behind one router: shared pool, shared memory budget.

Run with:  python examples/fleet_serving.py

Hydra's serving-side counterpart to model selection: after a search run
publishes many candidate models, all of them can serve *at once* from one
:class:`~repro.serving.FleetRouter` — one replica pool, one device budget —
instead of one dedicated server per model (see docs/router.md):

1. publish four different-width MLPs to a ModelRegistry and bring the whole
   fleet up with one ``serve_fleet`` call, under a device budget smaller
   than the fleet's total parameter bytes;
2. check a routed answer is bit-identical to a dedicated server's, even for
   a model that was evicted cold;
3. send a skewed traffic mix through the router from one thread and read
   the per-model, residency, and scheduler metrics back out.

Fleet serving speed is measured by ``python3 -m bench`` (``serve_fleet``);
the numbers printed here are the router's own ``metrics()``.
"""

import tempfile

import numpy as np

from repro.api import serve, serve_fleet
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.serving import ModelRegistry
from repro.serving.loadgen import mix_schedule
from repro.utils import format_table, seed_everything

WIDTHS = {"mlp-w24": 24, "mlp-w32": 32, "mlp-w40": 40, "mlp-w48": 48}
NUM_FEATURES = 16
NUM_CLASSES = 4
REQUESTS = 384
IN_FLIGHT = 16


def build(name: str) -> FeedForwardNetwork:
    width = WIDTHS[name]
    config = FeedForwardConfig(
        input_dim=NUM_FEATURES, hidden_dims=(width, width),
        num_classes=NUM_CLASSES, name=name,
    )
    return FeedForwardNetwork(config, seed=width)


def main() -> None:
    seed_everything(11)

    print("=== 1. Publish four candidates, serve them as one fleet ===")
    registry = ModelRegistry(tempfile.mkdtemp(prefix="repro-fleet-"))
    nbytes = {}
    for name in WIDTHS:
        model = build(name)
        registry.publish(name, model)
        nbytes[name] = sum(p.data.nbytes for p in model.parameters())
    total = sum(nbytes.values())
    # Room for roughly the two largest models: the fleet *must* evict.
    budget = int(0.6 * total)
    print(f"fleet: {len(WIDTHS)} models, {total} parameter bytes total; "
          f"device budget {budget} bytes ({budget / total:.0%})")

    router = serve_fleet(
        registry, build,
        memory_budget=budget, replicas=2,
        max_batch_size=8, compute_batch_size=8, max_queue=256,
    )

    inputs = np.random.default_rng(3).normal(
        size=(64, NUM_FEATURES)).astype(np.float32)

    print("\n=== 2. Routed answers are bit-identical to dedicated servers ===")
    victim = "mlp-w48"
    with serve(build(victim), max_batch_size=8,
               compute_batch_size=8) as dedicated:
        expected = dedicated.request(inputs[:1])
    # Touch every other model first so the victim is the eviction target.
    for name in WIDTHS:
        if name != victim:
            router.request(name, {"features": inputs[:1]})
    got = router.request(victim, {"features": inputs[:1]})
    assert np.array_equal(got, expected), "routed response must be exact"
    print(f"{victim}: routed response matches its dedicated server bit-for-bit")

    print("\n=== 3. Skewed mix through one pool, fair-share scheduled ===")
    mix = {"mlp-w24": 5.0, "mlp-w32": 1.0, "mlp-w40": 1.0, "mlp-w48": 1.0}
    schedule = mix_schedule(mix, REQUESTS)
    # Rounds of IN_FLIGHT requests, each round collected before the next.
    for start in range(0, REQUESTS, IN_FLIGHT):
        pending = [
            router.submit(name, {"features": inputs[index % len(inputs)][None, :]})
            for index, name in enumerate(schedule[start:start + IN_FLIGHT], start)
        ]
        for response in pending:
            response.result(timeout=30.0)
    residency = router.metrics()["residency"]  # stop() releases the device
    router.stop()
    # Read after stop(): every completion is recorded by then.
    metrics = router.metrics()
    fleet = metrics["fleet"]

    print(format_table(
        ["metric", "value"],
        [["completed", int(fleet["completed"])],
         ["throughput", f"{fleet['throughput_rps']:.0f} req/s"],
         ["p99 latency", f"{fleet['latency_p99_ms']:.2f} ms"],
         ["rows/batch", f"{fleet['mean_batch_rows']:.1f}"]],
    ))
    print(format_table(
        ["model", "requests served", "p99 ms"],
        [[name, int(metrics["models"][name]["completed"]),
          f"{metrics['models'][name]['latency_p99_ms']:.2f}"]
         for name in sorted(WIDTHS)],
    ))
    scheduler = metrics["scheduler"]
    print(f"residency: {len(residency['resident_models'])} of {len(WIDTHS)} models "
          f"on device ({residency['resident_bytes']} / {budget} bytes); "
          f"{residency['evictions']} evictions, {residency['restores']} restores")
    print(f"scheduler: {scheduler['batches_dispatched']} batches, "
          f"{scheduler['stalls']} stalls")
    assert residency["evictions"] > 0, "the budget should have forced churn"
    print("four models, one pool, one budget: OK")


if __name__ == "__main__":
    main()
