"""The two serving workloads: one model behind ``serve()``, four behind ``serve_fleet()``.

One *op* is one single-row request; one *cycle* is three phases back to
back — a burst (offline batch, bounded in flight), one open-loop window at
``RATE_LOW`` and one at ``RATE_MID`` — so a few seconds of co-tenant load
lands on a minority of every metric's samples.  All load comes from the
calling thread (see ``bench/loadgen.py``).
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import serve, serve_fleet
from repro.models import FeedForwardConfig, FeedForwardNetwork
from repro.serving import ModelRegistry
from repro.serving.loadgen import mix_schedule

from bench import loadgen, machine, spec
from bench.tracing import Tracer, spill_counters

COMPUTE_BATCH = 32
MAX_QUEUE = 4096
SINGLE_WIDTH = 256
FLEET_WIDTH = 128
HOT, COLD = "mlp-0", "mlp-3"


def build_model(name: str) -> FeedForwardNetwork:
    """``single`` is MLP 256x2 -> 64; fleet members are MLP 128x2 -> 32."""
    if name == "single":
        width, classes, seed = SINGLE_WIDTH, 64, 7
    else:
        width, classes, seed = FLEET_WIDTH, 32, 17 + int(name.rsplit("-", 1)[1])
    config = FeedForwardConfig(input_dim=width, hidden_dims=(width, width), num_classes=classes)
    return FeedForwardNetwork(config, seed=seed)


class ServeWorkload:
    """``serve_single`` or ``serve_fleet`` (see module docstring)."""

    def __init__(self, name: str, seed: int, scratch: str, smoke: bool = False):
        self.name = name
        self.fleet = name == "serve_fleet"
        self.scratch = scratch
        self.burst_requests = 2000 if smoke else spec.BURST_REQUESTS
        self.window_seconds = 0.2 if smoke else spec.WINDOW_SECONDS
        self.smoke = smoke
        rng = np.random.default_rng(seed)
        width = FLEET_WIDTH if self.fleet else SINGLE_WIDTH
        self.rows = rng.normal(size=(spec.PAYLOAD_ROWS, width)).astype(np.float32)
        self.names = sorted(spec.FLEET_MIX) if self.fleet else ["single"]
        period = sum(spec.FLEET_MIX.values())
        self.schedule = mix_schedule(spec.FLEET_MIX, period) if self.fleet else ["single"]
        self.offset = int(rng.integers(0, period))
        self.sample_rng = rng
        self.target: Any = None
        self.registry_dir: Optional[str] = None
        self.next_request = 0
        self.sent_per_model: Counter = Counter()
        self.probe = machine.SpeedProbe()

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build (and for the fleet publish) the models, start serving, warm up."""
        if self.fleet:
            self.registry_dir = tempfile.mkdtemp(prefix="fleet-registry-", dir=self.scratch)
            registry = ModelRegistry(self.registry_dir)
            one_model = 0
            for name in self.names:
                model = build_model(name)
                one_model = sum(p.data.nbytes for p in model.parameters())
                registry.publish(name, model)
            self.budget = int(one_model * spec.FLEET_BUDGET_MODELS)
            self.target = serve_fleet(
                registry, build_model, memory_budget=self.budget, replicas=2,
                max_batch_size=COMPUTE_BATCH, max_queue=MAX_QUEUE,
            )
        else:
            self.target = serve(
                build_model("single"), replicas=1, max_batch_size=COMPUTE_BATCH,
                max_wait_ms=2.0, max_queue=MAX_QUEUE,
            )
        self._burst(500)

    def close(self) -> None:
        """Stop serving and drop the fleet's registry."""
        if self.target is not None:
            self.target.stop()
        if self.registry_dir is not None:
            shutil.rmtree(self.registry_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def _model_of(self, index: int) -> str:
        return self.schedule[(index + self.offset) % len(self.schedule)]

    def _submit(self, index: int):
        row = index % spec.PAYLOAD_ROWS
        arrays = self.rows[row:row + 1]
        if not self.fleet:
            return self.target.submit(arrays)
        model = self._model_of(index)
        self.sent_per_model[model] += 1
        return self.target.submit(model, arrays)

    def _phase(self, run, *args, samples: int = 0) -> loadgen.PhaseResult:
        result = run(self._submit, self.next_request, *args, (samples, self.sample_rng))
        self.next_request += result.sent
        return result

    def _burst(self, count: int, samples: int = 0) -> loadgen.PhaseResult:
        return self._phase(
            loadgen.burst, count, spec.BURST_WINDOW[self.name], samples=samples)

    def _cycle(self) -> Dict[str, Any]:
        """One burst + low window + mid window.

        The burst is CPU-bound, so its rate and CPU cost are reported at the
        speed sampled right around it; the open-loop latencies contain
        wall-clock timers (the fill window, the arrival schedule) and stay
        in raw milliseconds.
        """
        gc.collect()
        before = self.probe.sample()
        cpu_started = machine.cpu_seconds()
        quarter = spec.SAMPLED_RESPONSES // 4
        burst = self._burst(self.burst_requests, samples=2 * quarter)
        cpu = machine.cpu_seconds() - cpu_started
        speed = (before + self.probe.sample()) / 2
        low = self._phase(
            loadgen.open_loop, spec.RATE_LOW, self.window_seconds, samples=quarter)
        mid = self._phase(
            loadgen.open_loop, spec.RATE_MID, self.window_seconds, samples=quarter)
        return {
            "burst": burst, "low": low, "mid": mid, "speed": speed,
            "burst_rate": burst.sent / (burst.wall_s / speed), "burst_cpu": cpu / speed,
        }

    # ------------------------------------------------------------------ #
    def run(self, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
        """Measure cycles for ``seconds``; return metrics, checks and op counts."""
        if not self.smoke:
            # Discarded: the first bursts run before eviction churn and
            # batch sizes settle.
            self._burst(self.burst_requests // 2)
        plain: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        traced_wall = 0.0
        started = time.monotonic()
        cycle_wall = 0.0
        while True:
            tracing = tracer is not None and (len(plain) + len(traced)) % 2 == 1
            cycle_started = time.monotonic()
            if tracing:
                tracer.install()
            try:
                cycle = self._cycle()
            finally:
                if tracing:
                    tracer.uninstall()
            cycle_wall = time.monotonic() - cycle_started
            if tracing:
                traced_wall += cycle_wall
            (traced if tracing else plain).append(cycle)
            done = len(plain) + len(traced)
            out_of_time = time.monotonic() - started + cycle_wall > seconds
            if self.smoke or (done >= spec.MIN_CYCLES and out_of_time):
                break

        cycles = plain + traced
        phases = [cycle[key] for cycle in cycles for key in ("burst", "low", "mid")]
        attempted = sum(phase.sent for phase in phases)
        failed = sum(phase.failed for phase in phases)
        mismatched = self._check_samples(cycles)
        checks = {"sampled_responses_match_reference": mismatched == 0}
        checks.update(self._check_counters())
        failed += mismatched
        if failed == 0 and not all(checks.values()):
            failed = 1  # a failed check is a failed op even when every request came back
        failed = min(failed, attempted)

        def over_cycles(source, value) -> tuple:
            samples = [value(cycle) for cycle in source]
            return statistics.median(samples), len(samples)

        def window(key: str, q: float) -> tuple:
            """Median over cycles of one open-loop window's q-th percentile (raw ms)."""
            return over_cycles(plain, lambda c: float(np.percentile(c[key].latencies_ms(), q)))

        def backlog(q: float) -> tuple:
            """The same over the bursts' sent -> completed latencies, at reference speed."""
            return over_cycles(plain, lambda c: float(np.percentile(
                (c["burst"].completed - c["burst"].sent_at) * 1e3, q)) / c["speed"])

        # At RATE_MID the fleet sits where latency amplifies every change of
        # machine state: identical runs read p50 2.3-4.1 ms, a spread (31-44 %
        # over ten runs) no bound can hold.  Its bounded latency is therefore
        # the closed-loop one, under the burst's backlog of BURST_WINDOW
        # requests; the open-loop windows are still reported per layer.
        open_p50, open_p90 = window("mid", 50), window("mid", 90)
        metrics = {
            "throughput_per_s": over_cycles(plain, lambda c: c["burst_rate"]),
            "latency_p50_ms": backlog(50) if self.fleet else open_p50,
            "latency_p90_ms": backlog(90) if self.fleet else open_p90,
            "latency_low_p50_ms": window("low", 50),
            "cpu_ms_per_op": (
                sum(c["burst_cpu"] for c in plain) / sum(c["burst"].sent for c in plain) * 1e3,
                len(plain),
            ),
        }
        lateness = np.concatenate(
            [cycle[key].lateness_ms() for cycle in cycles for key in ("low", "mid")])
        # The generator's share of each open-loop latency figure, like for like.
        late_share = max(
            statistics.median(
                float(np.percentile(cycle[key].lateness_ms(), q)) for cycle in cycles
            ) / figure
            for figure, key, q in ((open_p50[0], "mid", 50), (open_p90[0], "mid", 90),
                                   (metrics["latency_low_p50_ms"][0], "low", 50))
        )
        diagnostics = {
            "cycles": len(cycles),
            "speed_factor_median": statistics.median(c["speed"] for c in cycles),
            "open_loop_mid_p50_ms": open_p50[0],
            "open_loop_mid_p90_ms": open_p90[0],
            "lateness_ms_p99": float(np.percentile(lateness, 99)),
            "lateness_share_max": late_share,
            # A latency figure that is mostly the generator's own delay is
            # measuring the generator.
            "lateness_flag": bool(late_share > 0.5),
        }
        report: Dict[str, Any] = {
            "metrics": metrics, "checks": checks, "attempted": attempted, "failed": failed,
            "diagnostics": diagnostics,
        }
        if tracer is not None:
            report["layers"], report["request_lines"] = self._layers(
                tracer, cycles, traced, traced_wall, metrics["throughput_per_s"][0],
                lateness, open_p50[0], open_p90[0])
        return report

    # ------------------------------------------------------------------ #
    def _check_samples(self, cycles: List[Dict[str, Any]]) -> int:
        """Compare sampled responses with a dedicated unbatched server per model."""
        reference: Dict[str, List[np.ndarray]] = {}
        registry = ModelRegistry(self.registry_dir) if self.fleet else None
        for name in self.names:
            model = build_model(name)
            if registry is not None:
                registry.load(name, model)
            with serve(model, replicas=1, max_batch_size=1, compute_batch_size=COMPUTE_BATCH,
                       max_queue=MAX_QUEUE) as server:
                pending = [server.submit(self.rows[row:row + 1])
                           for row in range(spec.PAYLOAD_ROWS)]
                reference[name] = [p.result(timeout=loadgen.RESULT_TIMEOUT_S) for p in pending]
        mismatched = 0
        for cycle in cycles:
            for key in ("burst", "low", "mid"):
                for index, rows in cycle[key].samples:
                    expected = reference[self._model_of(index)][index % spec.PAYLOAD_ROWS]
                    if not np.array_equal(rows, expected):
                        mismatched += 1
        return mismatched

    def _check_counters(self) -> Dict[str, bool]:
        """The server's own counters agree with what the generator sent."""
        report = self.target.metrics()
        totals = report["fleet"] if self.fleet else report
        checks = {
            "none_rejected_or_timed_out":
                totals["rejected"] == 0 and totals["timed_out"] == 0 and totals["failed"] == 0,
        }
        if self.fleet:
            checks["per_model_counts_match_mix"] = all(
                report["models"][name]["completed"] == self.sent_per_model[name]
                for name in self.names
            )
        return checks

    # ------------------------------------------------------------------ #
    def _layers(
        self, tracer, cycles, traced, traced_wall, untraced_rate, lateness, open_p50, open_p90
    ):
        """Per-layer numbers: request-time shares from the traced cycles'
        RATE_MID windows, counters from the server's public stats (whole run,
        warm-up included)."""
        front = "router" if self.fleet else "server"
        shares = dict.fromkeys(spec.LAYERS, 0.0)
        queue_waits: List[np.ndarray] = []
        total_latency = 0.0
        lines: List[str] = []
        # The RATE_MID windows only: a burst's requests mostly queue behind
        # each other, which says little about where an arriving user's time goes.
        for cycle in traced:
            phase = cycle["mid"]
            start, lease, forward = phase.service.T
            shares["loadgen"] += float((phase.sent_at - phase.due).sum())
            shares["memory"] += float(lease.sum())
            shares["replica"] += float(forward.sum())
            # submit + queue wait + everything in the batch that is neither
            # lease nor forward (concat, pad, slice, completion)
            shares[front] += float((phase.completed - phase.sent_at - lease - forward).sum())
            total_latency += float((phase.completed - phase.due).sum())
            queue_waits.append(np.maximum(start - phase.submitted, 0.0) * 1e3)
            lines.extend(
                f'{{"request":{index},"due":{due:.7f},"sent":{sent:.7f},'
                f'"submitted":{submitted:.7f},"service_start":{begun:.7f},'
                f'"completed":{completed:.7f}}}\n'
                for index, due, sent, submitted, begun, completed in zip(
                    phase.index.tolist(), phase.due.tolist(), phase.sent_at.tolist(),
                    phase.submitted.tolist(), start.tolist(), phase.completed.tolist())
            )
        values: Dict[str, float] = {
            f"{layer}.self_share": share / total_latency if total_latency else 0.0
            for layer, share in shares.items()
        }
        forwards = [span.seconds for span in tracer.spans
                    if span.layer == "replica" and span.parent == 0]
        submits = tracer.durations(f"{front}.submit")
        acquires = tracer.durations("memory.acquire")
        mid_p99 = [float(np.percentile(c["mid"].latencies_ms(), 99)) for c in cycles]
        traced_rate = statistics.median(c["burst_rate"] for c in traced) if traced else 0.0
        values.update({
            f"{front}.submit_us_p50": statistics.median(submits) * 1e6 if submits else 0.0,
            f"{front}.queue_wait_ms_p50":
                float(np.median(np.concatenate(queue_waits))) if queue_waits else 0.0,
            "replica.infer_calls": len(forwards),
            "replica.infer_ms_p50": statistics.median(forwards) * 1e3 if forwards else 0.0,
            "replica.busy_share": sum(forwards) / traced_wall if traced_wall else 0.0,
            "memory.acquire_s": sum(acquires) / max(len(traced), 1),
            "memory.acquire_calls": len(acquires) / max(len(traced), 1),
            "loadgen.sent": sum(p.sent for c in cycles for p in (c["burst"], c["low"], c["mid"])),
            "loadgen.completed": sum(
                p.answered for c in cycles for p in (c["burst"], c["low"], c["mid"])),
            "loadgen.latency_mid_p50_ms": open_p50,
            "loadgen.latency_mid_p90_ms": open_p90,
            "loadgen.lateness_ms_p99": float(np.percentile(lateness, 99)),
            "loadgen.lateness_ms_max": float(lateness.max()),
            "loadgen.latency_p99_ms": statistics.median(mid_p99),
            "loadgen.latency_p99_n": cycles[0]["mid"].answered,
            "loadgen.latency_low_p90_ms": statistics.median(
                float(np.percentile(c["low"].latencies_ms(), 90)) for c in cycles),
            "trace.overhead_ratio": traced_rate / untraced_rate,
            "trace.spans": len(tracer.spans),
        })
        report = self.target.metrics()
        if self.fleet:
            totals, residency = report["fleet"], report["residency"]
            batches = report["scheduler"]["batches_dispatched"]
            by_model = {name: [] for name in (HOT, COLD)}
            slot = {name: [k for k, n in enumerate(self.schedule) if n == name]
                    for name in by_model}
            for cycle in cycles:
                mid = cycle["mid"]
                position = (mid.index + self.offset) % len(self.schedule)
                for model, bucket in by_model.items():
                    mask = np.isin(position, slot[model])
                    bucket.append(float(np.percentile(mid.latencies_ms()[mask], 50)))
            values.update({
                "router.batches_dispatched": batches,
                "router.mean_batch_rows": totals["mean_batch_rows"],
                "router.batch_fill_ratio": totals["mean_batch_rows"] / COMPUTE_BATCH,
                "router.evictions": residency["evictions"],
                "router.restores": residency["restores"],
                "router.restores_per_batch": residency["restores"] / batches if batches else 0.0,
                "router.bytes_fetched": residency["bytes_fetched"],
                "router.stalls": report["scheduler"]["stalls"],
                "router.queue_depth_max": totals["queue_depth_max"],
                "router.latency_p50_ms.hot": statistics.median(by_model[HOT]),
                "router.latency_p50_ms.cold": statistics.median(by_model[COLD]),
                "memory.evictions": residency["evictions"],
                "memory.bytes_fetched": residency["bytes_fetched"],
                "memory.bytes_evicted": residency["bytes_evicted"],
                "memory.budget_bytes": residency["budget_bytes"],
                "registry.bytes": sum(
                    os.path.getsize(os.path.join(root, name))
                    for root, _dirs, files in os.walk(self.registry_dir) for name in files),
            })
            # The router's spill manager is private; the lease wrappers saw it.
            for manager in tracer.managers.values():
                values.update(spill_counters(manager))
        else:
            values.update({
                "server.batches": report["batches"],
                "server.mean_batch_rows": report["mean_batch_rows"],
                "server.batch_fill_ratio": report["mean_batch_rows"] / COMPUTE_BATCH,
                "server.queue_depth_max": report["queue_depth_max"],
                "server.rejected": report["rejected"],
                "server.timed_out": report["timed_out"],
            })
        return values, lines
