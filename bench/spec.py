"""What the benchmark measures: workloads, metrics, bounds, fixed constants.

This module is the single source of truth.  ``BENCHMARK.json`` at the
repository root is :func:`manifest` written out (``bench/test_smoke.py``
fails when the two drift), the runner prints metrics in the order listed
here, and ``bench/README.md`` explains the choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: seconds one run measures for (the ``--seconds`` default and the
#: manifest's ``run_seconds``); sized so that 4 + 22 x 5 driver runs, each
#: with its set-up probes and output checks, fit the driver's time cap
RUN_SECONDS = 20
#: the ``--seed`` default; ``--selfcheck`` alternates it with SECOND_SEED
DEFAULT_SEED = 0
SECOND_SEED = 1
#: fresh-process set-ups timed per run (``setup_s`` is their median)
SETUP_SAMPLES = 3

# --------------------------------------------------------------------------- #
# Fixed workload constants (see README "Noise rules" for why these values)
# --------------------------------------------------------------------------- #
#: open-loop rates; both sit outside the 1000-4000 rps band where fleet
#: batching flips between two regimes
RATE_LOW = 500
RATE_MID = 8000
#: seconds per open-loop window, and requests per burst phase.  Half the
#: issue's sizes: per-window latency on the fleet varies +-20 % from one
#: window to the next at every rate from 2000 to 16000 rps, so a run is
#: better spent on twice as many windows (4000 samples each still leave 400
#: beyond the p90) than on longer ones
WINDOW_SECONDS = 0.5
BURST_REQUESTS = 15000
#: the bound on requests in flight during a burst
BURST_WINDOW = {"serve_single": 256, "serve_fleet": 1024}
#: responses compared with the reference server per cycle
SAMPLED_RESPONSES = 64
#: request rows drawn from the seed; requests cycle through them
PAYLOAD_ROWS = 256
#: fleet traffic mix (requests per 15) and the fleet budget in models
FLEET_MIX = {"mlp-0": 8, "mlp-1": 4, "mlp-2": 2, "mlp-3": 1}
FLEET_BUDGET_MODELS = 2.5
#: ``select_spilled`` per-device budget, in largest-shard (params + Adam) bytes
SPILL_BUDGET_SHARDS = 1.3
#: reference selections (resident / serial) run by the traced run for ratios
REFERENCE_SELECTIONS = 3
#: a run measures at least this many cycles however slow the machine is
MIN_CYCLES = 2
#: size of the square calibration GEMM in the machine fingerprint
CALIBRATION_GEMM = 256
#: seconds the three ``machine.SpeedProbe`` kernels take on the reference box
#: (2-vCPU Xeon 2.1 GHz microVM) when its host is quiet: the 10th percentile
#: of 300 samples.  CPU-bound timings are reported at this speed.
SPEED_REFERENCE_S = {"python": 0.0172, "numpy": 0.0253, "memory": 0.0115}


WORKLOADS: Dict[str, str] = {
    "select_resident": (
        "paper workload (BERT-tiny + MLP grid) on the resident engine: training/optim "
        "do the work, memory/runtime/serving none; single-worker baseline"
    ),
    "select_spilled": (
        "same executor on the lease path: small batch x wide layers under a 1.3-shard "
        "budget, so memory (lease/evict/fetch/prefetch) dominates"
    ),
    "select_process": (
        "short trials on a 2-child process pool with a registry: runtime (spawn, import, "
        "pickle, snapshots) and checkpoint/registry dominate, engine is the minority"
    ),
    "serve_single": (
        "one model behind ModelServer + DynamicBatcher (fill-window batching); "
        "router and memory do nothing"
    ),
    "serve_fleet": (
        "four models, skewed 8:4:2:1 mix, behind FleetRouter under a 2.5-model budget: "
        "continuous batching with eviction churn"
    ),
}
SELECT_WORKLOADS = ("select_resident", "select_spilled", "select_process")
SERVE_WORKLOADS = ("serve_single", "serve_fleet")


@dataclass(frozen=True)
class Metric:
    """One reported number; ``bound`` is set for end-to-end metrics only."""

    name: str
    unit: str
    better: str
    meaning: str
    bound: float = 0.0
    layer: str = ""

    def manifest_entry(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "name": self.name, "unit": self.unit, "better": self.better,
        }
        if self.bound:
            entry["bound"] = self.bound
        return entry


# Bounds come from the spread measured on the reference box (README,
# "Steadiness"): each is at least three times the widest interquartile spread
# seen over ten fresh-process runs, capped at the contract's 0.25.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "fresh process start -> first op done (imports, data/model build, registry "
           "publish, serve bring-up, first op); median of SETUP_SAMPLES processes; raw seconds",
           bound=0.25),
    Metric("throughput_per_s", "1/s", "higher",
           "at reference speed. select: trials per selection / median selection time; "
           "serve: median over cycles of burst requests / burst time",
           bound=0.25),
    Metric("latency_p50_ms", "ms", "lower",
           "select: median time of one selection (Experiment.run -> ranked result), at "
           "reference speed; serve_single: median over cycles of the open-loop window p50 at "
           "RATE_MID, raw ms; serve_fleet: median over cycles of the closed-loop p50 under the "
           "burst's backlog, at reference speed",
           bound=0.25),
    Metric("latency_p90_ms", "ms", "lower",
           "as latency_p50_ms with the p90; select: p90 over ~20 selections (read it with its n)",
           bound=0.25),
    Metric("latency_low_p50_ms", "ms", "lower",
           "the lightest load. serve: window p50 at RATE_LOW (requests never share a batch), "
           "raw ms; select: median time of a one-trial selection, at reference speed",
           bound=0.25),
    Metric("cpu_ms_per_op", "ms", "lower",
           "process CPU (user+sys, self + reaped children) over the throughput phase / ops, "
           "at reference speed",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "max RSS of the workload process plus max child RSS",
           bound=0.15),
]


def _layer(layer: str, rows: List[tuple]) -> List[Metric]:
    return [
        Metric(f"{layer}.{name}", unit, better, meaning, layer=layer)
        for name, unit, better, meaning in rows
    ]


PER_LAYER: List[Metric] = [
    *_layer("experiment", [
        ("run_s", "s", "lower", "median Experiment.run span"),
        ("self_share", "ratio", "lower", "searcher/runner self time / traced wall"),
    ]),
    *_layer("backend", [
        ("prepare_s", "s", "lower", "ShardParallelBackend.prepare per selection (builder)"),
        ("train_many_s", "s", "lower", "ShardParallelBackend.train_many per selection"),
        ("teardown_s", "s", "lower", "ShardParallelBackend.teardown per selection (publish)"),
        ("self_share", "ratio", "lower", "backend self time / traced wall"),
    ]),
    *_layer("runtime", [
        ("pool_start_s", "s", "lower", "make_pool(2, 'process') + first no-op round trip"),
        ("roundtrip_ms_p50", "ms", "lower", "warm no-op submit().result() on that pool"),
        ("backend_pickle_bytes", "bytes", "lower", "len(pickle.dumps(backend))"),
        ("backend_pickle_ms", "ms", "lower", "median pickle.dumps(backend)"),
        ("serial_makespan_s", "s", "lower", "median serial selection of the same grid"),
        ("speedup_vs_serial", "ratio", "higher", "serial makespan / pool makespan (base: serial)"),
        ("overhead_s", "s", "lower", "pool makespan - serial makespan / workers"),
        ("failed_trials", "count", "lower", "FailedTrial records over all selections"),
        ("self_share", "ratio", "lower", "ConcurrentBackend self time (children wait) / traced wall"),
    ]),
    *_layer("training", [
        ("steps", "count", "higher", "optimisation steps in traced selections"),
        ("step_ms_p50", "ms", "lower", "train_epoch span / its steps, median"),
        ("forward_s", "s", "lower", "run_forward self time per selection"),
        ("loss_s", "s", "lower", "compute_loss self time per selection"),
        ("backward_s", "s", "lower", "run_backward self time per selection"),
        ("self_share", "ratio", "lower", "trainer + executor self time / traced wall"),
    ]),
    *_layer("optim", [
        ("step_s", "s", "lower", "Optimizer.step + step_params per selection"),
        ("step_calls", "count", "lower", "optimizer update calls per selection"),
        ("self_share", "ratio", "lower", "optimizer self time / traced wall"),
    ]),
    *_layer("data", [
        ("wait_s", "s", "lower", "DataLoader iterator __next__ per selection"),
        ("batches", "count", "higher", "batches yielded per selection"),
        ("self_share", "ratio", "lower", "loader self time / traced wall"),
    ]),
    *_layer("memory", [
        ("acquire_s", "s", "lower", "time work waited in SpillManager.acquire, per traced cycle"),
        ("acquire_calls", "count", "lower", "acquire calls per traced cycle"),
        ("acquire_waits", "count", "lower", "acquires that blocked on pinned occupants"),
        ("demand_fetches", "count", "lower", "restores done inside acquire"),
        ("prefetches_issued", "count", "higher", "async restores started"),
        ("prefetches_completed", "count", "higher", "async restores finished"),
        ("prefetch_hit_ratio", "ratio", "higher", "prefetches_completed / (prefetches_completed + demand_fetches)"),
        ("evictions", "count", "lower", "shards/models evicted"),
        ("bytes_fetched", "bytes", "lower", "bytes restored from the host cache"),
        ("bytes_evicted", "bytes", "lower", "bytes written to the host cache"),
        ("budget_bytes", "bytes", "lower", "arena capacity per device (fleet: whole budget)"),
        ("peak_resident_bytes", "bytes", "lower", "largest arena peak"),
        ("spill_overhead_ratio", "ratio", "lower", "spilled / resident makespan (base: resident)"),
        ("self_share", "ratio", "lower", "acquire/release/prefetch self time / traced total"),
    ]),
    *_layer("checkpoint", [
        ("save_s", "s", "lower", "save_checkpoint self time per selection"),
        ("load_s", "s", "lower", "load_checkpoint self time per selection"),
        ("self_share", "ratio", "lower", "checkpoint self time / traced wall"),
    ]),
    *_layer("registry", [
        ("publish_s", "s", "lower", "ModelRegistry.publish per selection"),
        ("load_s", "s", "lower", "ModelRegistry.load per selection"),
        ("bytes", "bytes", "lower", "bytes of the published archives (serve_fleet: of its set-up)"),
        ("self_share", "ratio", "lower", "registry self time / traced wall"),
    ]),
    *_layer("server", [
        ("submit_us_p50", "us", "lower", "ModelServer.submit span"),
        ("batches", "count", "lower", "micro-batches executed"),
        ("mean_batch_rows", "count", "higher", "rows per micro-batch"),
        ("batch_fill_ratio", "ratio", "higher", "rows / (batches x 32)"),
        ("queue_wait_ms_p50", "ms", "lower", "request latency - its batch's service time"),
        ("queue_depth_max", "count", "lower", "deepest queue seen at dispatch"),
        ("rejected", "count", "lower", "requests refused at submit"),
        ("timed_out", "count", "lower", "requests expired in the queue"),
        ("self_share", "ratio", "lower", "submit + queue wait + completion / summed request latency"),
    ]),
    *_layer("router", [
        ("submit_us_p50", "us", "lower", "FleetRouter.submit span"),
        ("batches_dispatched", "count", "lower", "micro-batches dispatched"),
        ("mean_batch_rows", "count", "higher", "rows per micro-batch"),
        ("batch_fill_ratio", "ratio", "higher", "rows / (batches x 32)"),
        ("evictions", "count", "lower", "whole-model evictions"),
        ("restores", "count", "lower", "whole-model restores"),
        ("restores_per_batch", "ratio", "lower", "restores / batches dispatched"),
        ("bytes_fetched", "bytes", "lower", "bytes restored"),
        ("stalls", "count", "lower", "watchdog stalls"),
        ("queue_depth_max", "count", "lower", "deepest fleet-wide queue seen at dispatch"),
        ("latency_p50_ms.hot", "ms", "lower", "window p50 at RATE_MID, mlp-0"),
        ("latency_p50_ms.cold", "ms", "lower", "window p50 at RATE_MID, mlp-3"),
        ("self_share", "ratio", "lower", "submit + queue wait + completion / summed request latency"),
    ]),
    *_layer("replica", [
        ("infer_calls", "count", "lower", "forwards in traced cycles"),
        ("infer_ms_p50", "ms", "lower", "Replica.infer / model forward span"),
        ("busy_share", "ratio", "lower", "forward time / traced phase wall"),
        ("self_share", "ratio", "lower", "forward time / summed request latency"),
    ]),
    *_layer("loadgen", [
        ("sent", "count", "higher", "requests submitted in measured cycles"),
        ("completed", "count", "higher", "requests answered in measured cycles"),
        ("latency_mid_p50_ms", "ms", "lower", "median window p50 at RATE_MID, raw ms (end-to-end on serve_single)"),
        ("latency_mid_p90_ms", "ms", "lower", "median window p90 at RATE_MID, raw ms (end-to-end on serve_single)"),
        ("lateness_ms_p99", "ms", "lower", "generator lateness (sent - due), open-loop windows"),
        ("lateness_ms_max", "ms", "lower", "worst generator lateness"),
        ("latency_p99_ms", "ms", "lower", "median window p99 at RATE_MID (too noisy to bound)"),
        ("latency_p99_n", "count", "higher", "samples per window behind that p99"),
        ("latency_low_p90_ms", "ms", "lower", "median window p90 at RATE_LOW"),
        ("self_share", "ratio", "lower", "generator lateness / summed request latency"),
    ]),
    *_layer("trace", [
        ("overhead_ratio", "ratio", "higher", "traced / untraced throughput_per_s in the same run"),
        ("spans", "count", "lower", "spans recorded"),
    ]),
]

#: layers whose ``self_share`` must add up to 1 for every workload
LAYERS = sorted({metric.layer for metric in PER_LAYER} - {"trace"})


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [metric.manifest_entry() for metric in END_TO_END],
        "per_layer": [metric.manifest_entry() for metric in PER_LAYER],
    }
