"""The three selection workloads: resident, spilled, process pool.

All three go through the same public call — ``Experiment(grid).run(backend=
ShardParallelBackend(...))`` — and differ in which layer that call leans on
(see ``bench/spec.py`` for why each exists).  One *op* is one trial; one
*cycle* is one full selection followed by a one-trial selection of the
grid's first point (the lightest load the pipeline can be given).

Builders and datasets are module-level and keyed by the seed so a spawned
pool child rebuilds exactly the parent's inputs.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import pickle
import shutil
import statistics
import tempfile
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Budget, Experiment, ShardParallelBackend, make_pool
from repro.data import DataLoader, SyntheticSpanDataset, make_classification
from repro.models import (
    BertConfig,
    BertForSpanPrediction,
    FeedForwardConfig,
    FeedForwardNetwork,
)
from repro.optim import Adam, AdamW
from repro.selection import SearchSpace
from repro.serving import ModelRegistry
from repro.sharding import partition_uniform

from bench import machine, spec
from bench.tracing import Tracer, spill_counters

LEARNING_RATES = [1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4, 5e-5]
NUM_DEVICES = 2
SPILL_SHARDS = 4
SPILL_WIDTH = 512
POOL_WORKERS = 2


# --------------------------------------------------------------------------- #
# Inputs (from the seed) and builders (module-level: pool children import them)
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=4)
def _dataset(kind: str, seed: int):
    rng = np.random.default_rng([seed, len(kind)])
    if kind == "span":
        return SyntheticSpanDataset(num_samples=64, seq_len=48, vocab_size=96, rng=rng)
    if kind == "wide":
        return make_classification(
            num_samples=32, num_features=SPILL_WIDTH, num_classes=SPILL_WIDTH, rng=rng
        )
    return make_classification(num_samples=512, num_features=64, num_classes=10, rng=rng)


def _mlp(width: int, depth: int, inputs: int, classes: int) -> FeedForwardNetwork:
    config = FeedForwardConfig(
        input_dim=inputs, hidden_dims=(width,) * depth, num_classes=classes
    )
    return FeedForwardNetwork(config, seed=0)


def build_paper(seed: int, trial):
    """BERT-tiny fine-tune or MLP 256x3 — the paper's two model families."""
    lr = float(trial.get("lr"))
    if trial.get("kind") == "bert":
        model = BertForSpanPrediction(BertConfig.tiny(vocab_size=96, seq_len=48), seed=0)
        loader = DataLoader(_dataset("span", seed), batch_size=16, shuffle=True, seed=0)
        return model, AdamW(model.parameters(), lr=lr, weight_decay=0.01), loader
    return build_small(seed, trial)


def build_small(seed: int, trial):
    """MLP 256x3 on 512 samples: a short trial."""
    model = _mlp(256, 3, 64, 10)
    loader = DataLoader(_dataset("table", seed), batch_size=32, shuffle=True, seed=0)
    return model, Adam(model.parameters(), lr=float(trial.get("lr"))), loader


def build_wide(seed: int, trial):
    """MLP 512x3 -> 512 at batch 4: copy bytes dominate FLOPs."""
    model = _mlp(SPILL_WIDTH, 3, SPILL_WIDTH, SPILL_WIDTH)
    loader = DataLoader(_dataset("wide", seed), batch_size=4, shuffle=True, seed=0)
    return model, Adam(model.parameters(), lr=float(trial.get("lr"))), loader


def _noop() -> None:
    """Round-trip probe body (module-level so a pool child can import it)."""


_CONFIGS: Dict[str, Dict[str, Any]] = {
    "select_resident": dict(
        builder=build_paper, epochs=2,
        grid={"kind": ["bert", "mlp"], "lr": LEARNING_RATES[:4]},
    ),
    "select_spilled": dict(
        builder=build_wide, epochs=1, grid={"lr": LEARNING_RATES[:4]},
    ),
    "select_process": dict(
        builder=build_small, epochs=1, grid={"lr": LEARNING_RATES},
    ),
}


def _outcome(result) -> Tuple[Tuple[float, ...], Tuple[str, ...]]:
    """What a selection decided: per-trial losses (trial order) and the ranking."""
    losses = tuple(trial.metric("loss") for trial in result.succeeded())
    return losses, tuple(trial.trial_id for trial in result.ranked())


class SelectWorkload:
    """One of the ``select_*`` workloads (see module docstring)."""

    def __init__(self, name: str, seed: int, scratch: str, smoke: bool = False):
        config = _CONFIGS[name]
        self.name = name
        self.scratch = scratch
        self.smoke = smoke
        self.builder = functools.partial(config["builder"], seed)
        self.budget = Budget(epochs_per_trial=config["epochs"])
        self.grid: Dict[str, list] = config["grid"]
        self.full = SearchSpace(self.grid)
        self.single = SearchSpace({key: values[:1] for key, values in self.grid.items()})
        self.trials = int(np.prod([len(values) for values in self.grid.values()]))
        self.spill_budget: Optional[int] = None
        self.failed_trials = 0
        self.spill: Dict[str, float] = {}  # the last spilled selection's counters
        self.peak_arena_bytes = 0
        self.published_ok = True
        self.registry_bytes = 0
        self.probe = machine.SpeedProbe()

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build inputs, size the spill budget, run a one-trial selection.

        That first selection pays the lazy first-call costs; the full
        warm-up selection is ``run``'s, so a set-up probe stays short.
        """
        if self.name == "select_spilled":
            # Any grid point will do for sizing: they differ in learning rate only.
            model, optimizer, _loader = self.builder(
                {key: values[0] for key, values in self.grid.items()})
            state_arrays = (optimizer.state_bytes_per_parameter + 3) // 4
            largest = max(
                sum(p.data.nbytes for block in range(start, stop)
                    for p in model.block_parameters(block)) * (1 + state_arrays)
                for start, stop in partition_uniform(model.profile(), SPILL_SHARDS)
            )
            self.spill_budget = int(largest * spec.SPILL_BUDGET_SHARDS)
        self.select(self.single)

    def close(self) -> None:
        """Nothing outlives a selection; kept for symmetry with serving."""

    # ------------------------------------------------------------------ #
    def select(self, space: SearchSpace, reference: bool = False):
        """Run one selection; return ``(outcome, wall seconds, cpu seconds)``.

        ``reference`` runs the same grid the plain way — resident for
        ``select_spilled``, serial for ``select_process`` — which is what the
        measured selections must agree with bit for bit.
        """
        experiment = Experiment(space=space, searcher="grid", objective="loss", budget=self.budget)
        options: Dict[str, Any] = {}
        pooled: Dict[str, Any] = {}
        registry = None
        if self.name == "select_spilled":
            options["num_shards"] = SPILL_SHARDS
            if not reference:
                options.update(memory_budget=self.spill_budget,
                               eviction_policy="schedule-aware", prefetch=True)
        if self.name == "select_process":
            registry = ModelRegistry(tempfile.mkdtemp(prefix="registry-", dir=self.scratch))
            options["registry"] = registry
            if not reference:
                pooled.update(workers=POOL_WORKERS, pool="process")
        gc.collect()
        cpu_started = machine.cpu_seconds()
        started = time.perf_counter()
        backend = ShardParallelBackend(builder=self.builder, num_devices=NUM_DEVICES, **options)
        try:
            result = experiment.run(backend=backend, **pooled)
            if backend.memory is not None:
                self.spill = spill_counters(backend.memory)
                self.peak_arena_bytes = max(
                    self.peak_arena_bytes, self.spill["memory.peak_resident_bytes"])
        finally:
            backend.close()  # stops the prefetch thread; a no-op without a budget
        outcome = _outcome(result)
        wall = time.perf_counter() - started
        cpu = machine.cpu_seconds() - cpu_started
        self.failed_trials += len(result.failures)
        if registry is not None:
            names = registry.names()
            if len(names) != len(result.trials) or any(
                    registry.versions(name) != [1] for name in names):
                self.published_ok = False
            self.registry_bytes = sum(registry.archive_path(name).stat().st_size for name in names)
            shutil.rmtree(registry.root, ignore_errors=True)
        return outcome, wall, cpu

    # ------------------------------------------------------------------ #
    def run(self, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
        """Measure cycles for ``seconds``; return metrics, checks and op counts."""
        full_walls: List[float] = []     # at reference speed, untraced cycles
        traced_walls: List[float] = []   # raw seconds, what the spans add up to
        traced_norm: List[float] = []
        full_cpu = 0.0
        single_walls: List[float] = []
        speeds: List[float] = []
        outcomes: List[tuple] = []
        single_outcomes: List[tuple] = []
        if not self.smoke:
            # Discarded: the first full selection in a process runs several
            # times slower than a warm one.
            self.select(self.full)
        started = time.perf_counter()
        cycle = 0
        after = self.probe.sample()
        while True:
            cycle_started = time.perf_counter()
            traced = tracer is not None and cycle % 2 == 1
            if traced:
                tracer.set_op(f"selection-{cycle}")
                tracer.install()
            try:
                outcome, wall, cpu = self.select(self.full)
            finally:
                if traced:
                    tracer.uninstall()
            # Each op is reported at the speed sampled right around it.
            before, after = after, self.probe.sample()
            speed = (before + after) / 2
            speeds.append(speed)
            outcomes.append(outcome)
            if traced:
                traced_walls.append(wall)
                traced_norm.append(wall / speed)
            else:
                full_walls.append(wall / speed)
                full_cpu += cpu / speed
            single, wall, _cpu = self.select(self.single)
            before, after = after, self.probe.sample()
            single_outcomes.append(single)
            single_walls.append(wall / ((before + after) / 2))
            cycle += 1
            now = time.perf_counter()
            out_of_time = now - started + (now - cycle_started) > seconds
            if self.smoke or (cycle >= spec.MIN_CYCLES and out_of_time):
                break

        # Output checks: every selection agrees with the first, and the first
        # agrees with the plain (resident / serial) run of the same grid.
        references = 0 if self.name == "select_resident" else (
            spec.REFERENCE_SELECTIONS if tracer is not None and not self.smoke else 1)
        reference_walls = []
        reference_outcome = outcomes[0]
        for _ in range(references):
            before = self.probe.sample()
            reference_outcome, wall, _cpu = self.select(self.full, reference=True)
            reference_walls.append(wall / ((before + self.probe.sample()) / 2))
        bad_selections = sum(1 for outcome in outcomes if outcome != reference_outcome)
        bad_singles = sum(1 for outcome in single_outcomes if outcome != single_outcomes[0])
        checks = {
            "selections_identical": bad_selections == 0 and bad_singles == 0,
            "no_failed_trials": self.failed_trials == 0,
        }
        if self.name == "select_spilled":
            checks["peak_arena_within_budget"] = 0 < self.peak_arena_bytes <= self.spill_budget
        if self.name == "select_process":
            checks["all_trials_published_once"] = self.published_ok
        attempted = len(outcomes) * self.trials + len(single_outcomes)
        failed = self.failed_trials + bad_selections * self.trials + bad_singles
        if failed == 0 and not all(checks.values()):
            failed = 1  # a failed check is a failed op even when every trial ran
        failed = min(failed, attempted)

        median_wall = statistics.median(full_walls)
        metrics = {
            "throughput_per_s": (self.trials / median_wall, len(full_walls)),
            "latency_p50_ms": (median_wall * 1e3, len(full_walls)),
            "latency_p90_ms": (float(np.percentile(full_walls, 90)) * 1e3, len(full_walls)),
            "latency_low_p50_ms": (statistics.median(single_walls) * 1e3, len(single_walls)),
            "cpu_ms_per_op": (full_cpu / (len(full_walls) * self.trials) * 1e3, len(full_walls)),
        }
        digest = hashlib.sha256(repr(outcomes[0]).encode()).hexdigest()[:12]
        report: Dict[str, Any] = {
            "metrics": metrics, "checks": checks, "attempted": attempted, "failed": failed,
            "diagnostics": {
                "outcome_digest": digest, "cycles": cycle,
                "speed_factor_median": statistics.median(speeds),
                "speed_factor_range": [min(speeds), max(speeds)],
            },
        }
        if tracer is not None:
            report["layers"] = self._layers(
                tracer, median_wall, traced_walls, traced_norm, reference_walls)
        return report

    # ------------------------------------------------------------------ #
    def _layers(
        self, tracer, median_wall, traced_walls, traced_norm, reference_walls
    ) -> Dict[str, float]:
        """Per-layer numbers from the traced selections (per selection).

        Span times are raw seconds (shares need no common speed); the three
        ratios against ``median_wall`` compare reference-speed times.
        """
        count = max(len(traced_walls), 1)
        traced_total = sum(traced_walls) or 1.0
        by_layer = tracer.self_times()
        by_name = tracer.self_times(key="name")
        calls = lambda name: len(tracer.durations(name))  # noqa: E731
        per_selection = lambda name: by_name.get(name, 0.0) / count  # noqa: E731
        values: Dict[str, float] = {
            f"{layer}.self_share": by_layer.get(layer, 0.0) / traced_total
            for layer in spec.LAYERS
        }
        runs = tracer.durations("Experiment.run")
        steps = calls("executor.compute_loss")
        # One loss per step, each a child of its epoch's span.
        steps_in = Counter(
            span.parent for span in tracer.spans if span.name == "executor.compute_loss")
        step_ms = [span.seconds / steps_in[span.id] * 1e3 for span in tracer.spans
                   if span.name == "trainer.train_epoch" and steps_in[span.id]]
        values.update({
            "experiment.run_s": statistics.median(runs) if runs else 0.0,
            "backend.prepare_s": sum(tracer.durations("backend.prepare")) / count,
            "backend.train_many_s": sum(tracer.durations("backend.train_many")) / count,
            "backend.teardown_s": sum(tracer.durations("backend.teardown")) / count,
            "training.steps": steps,
            "training.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "training.forward_s": per_selection("executor.run_forward"),
            "training.loss_s": per_selection("executor.compute_loss"),
            "training.backward_s": per_selection("executor.run_backward"),
            "optim.step_s": per_selection("optim.step") + per_selection("optim.step_params"),
            "optim.step_calls": (calls("optim.step") + calls("optim.step_params")) / count,
            "data.wait_s": per_selection("data.next"),
            "data.batches": calls("data.next") / count,
            "memory.acquire_s": per_selection("memory.acquire"),
            "memory.acquire_calls": calls("memory.acquire") / count,
            "checkpoint.save_s": per_selection("checkpoint.save"),
            "checkpoint.load_s": per_selection("checkpoint.load"),
            "registry.publish_s": per_selection("registry.publish"),
            "registry.load_s": per_selection("registry.load"),
            "registry.bytes": self.registry_bytes,
            "runtime.failed_trials": self.failed_trials,
            "trace.overhead_ratio": median_wall / statistics.median(traced_norm)
            if traced_norm else 0.0,
            "trace.spans": len(tracer.spans),
        })
        if self.name == "select_spilled":
            values.update(self.spill)
            values.update({
                "memory.budget_bytes": self.spill_budget,
                "memory.peak_resident_bytes": self.peak_arena_bytes,
                "memory.spill_overhead_ratio": median_wall / statistics.median(reference_walls),
            })
        if self.name == "select_process":
            serial = statistics.median(reference_walls)
            values.update({
                "runtime.serial_makespan_s": serial,
                "runtime.speedup_vs_serial": serial / median_wall,
                "runtime.overhead_s": median_wall - serial / POOL_WORKERS,
            })
            values.update(self._runtime_probes())
        return values

    def _runtime_probes(self) -> Dict[str, float]:
        """Pool start, warm round trip and backend pickle, timed directly."""
        started = time.perf_counter()
        pool = make_pool(POOL_WORKERS, kind="process")
        try:
            pool.submit(_noop).result()
            pool_start = time.perf_counter() - started
            roundtrips = []
            for _ in range(20):
                started = time.perf_counter()
                pool.submit(_noop).result()
                roundtrips.append(time.perf_counter() - started)
        finally:
            pool.shutdown()
        backend = ShardParallelBackend(builder=self.builder, num_devices=NUM_DEVICES)
        pickles = []
        for _ in range(20):
            started = time.perf_counter()
            payload = pickle.dumps(backend)
            pickles.append(time.perf_counter() - started)
        return {
            "runtime.pool_start_s": pool_start,
            "runtime.roundtrip_ms_p50": statistics.median(roundtrips) * 1e3,
            "runtime.backend_pickle_bytes": len(payload),
            "runtime.backend_pickle_ms": statistics.median(pickles) * 1e3,
        }
