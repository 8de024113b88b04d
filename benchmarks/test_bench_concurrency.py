"""E10: serial vs pooled trial execution — the runtime's makespan benchmark.

The paper frames model selection as a throughput problem: many candidate
configurations should saturate the cluster simultaneously.  This benchmark
measures exactly that at the runtime layer: one 8-trial grid, executed
serially and then through ``Experiment.run(workers=N)`` for N in {1, 2, 4, 8},
on a backend whose per-trial cost is a fixed engine-occupancy window (a
sleep — the shape of any trial whose heavy work releases the GIL: numpy
kernels, I/O, or a remote executor).

Emits ``benchmarks/BENCH_concurrency.json`` (consumed by the table in
README.md; the committed file is only rewritten by an explicit
``REPRO_PERF_LONG=1`` run) and asserts the PR's acceptance criteria:

* pooled execution with 4 workers beats serial wall-clock on the 8-trial grid;
* the ranking is identical at ``workers=1`` and ``workers=4`` (determinism).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api import Budget, Experiment, FunctionBackend
from repro.selection import SearchSpace

from conftest import print_report

#: per-trial engine occupancy (seconds); small enough to keep tier-1 fast,
#: large enough to dominate pool dispatch overhead
TRIAL_SECONDS = 0.02
NUM_TRIALS = 8
WORKER_COUNTS = (1, 2, 4, 8)

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_concurrency.json"

_PERF_LONG = os.environ.get("REPRO_PERF_LONG", "") not in ("", "0")


def _train_fn(trial, epochs):
    """One trial: occupy the engine for a fixed window, return a loss that
    scrambles the grid order (so ranking equality is a real check)."""
    time.sleep(TRIAL_SECONDS)
    x = int(trial.get("x"))
    return {"loss": float((x * 37) % 11)}


def _experiment() -> Experiment:
    return Experiment(
        space=SearchSpace({"x": list(range(NUM_TRIALS))}),
        searcher="grid",
        objective="loss",
        budget=Budget(epochs_per_trial=1),
    )


def _timed_run(workers=None):
    experiment = _experiment()
    started = time.monotonic()
    if workers is None:
        result = experiment.run(backend=FunctionBackend(_train_fn))
    else:
        result = experiment.run(backend=FunctionBackend(_train_fn), workers=workers)
    return result, time.monotonic() - started


def test_pooled_execution_beats_serial():
    """E10: pooled makespan across worker counts; emits BENCH_concurrency.json."""
    serial_result, serial_seconds = _timed_run()
    rows = [("serial", f"{serial_seconds:.3f}", "1.00x")]
    records = [
        {"workers": 0, "label": "serial", "makespan_seconds": round(serial_seconds, 4),
         "speedup": 1.0}
    ]
    rankings = {}
    for workers in WORKER_COUNTS:
        result, seconds = _timed_run(workers=workers)
        rankings[workers] = [t.trial_id for t in result.ranked()]
        speedup = serial_seconds / seconds
        rows.append((f"workers={workers}", f"{seconds:.3f}", f"{speedup:.2f}x"))
        records.append(
            {"workers": workers, "label": f"workers={workers}",
             "makespan_seconds": round(seconds, 4), "speedup": round(speedup, 2)}
        )
        if workers >= 4:
            # Acceptance: 4 pooled workers beat serial on the 8-trial grid.
            assert seconds < serial_seconds, (
                f"{workers} workers took {seconds:.3f}s vs serial {serial_seconds:.3f}s"
            )

    # Determinism: the ranking is completion-order independent.
    serial_ranking = [t.trial_id for t in serial_result.ranked()]
    assert rankings[1] == serial_ranking
    assert rankings[4] == rankings[1]

    if _PERF_LONG or not BENCH_PATH.exists():
        BENCH_PATH.write_text(
            json.dumps(
                {"experiment": "E10", "num_trials": NUM_TRIALS,
                 "trial_seconds": TRIAL_SECONDS, "rows": records},
                indent=2,
            )
            + "\n"
        )
    print_report(
        "E10 · concurrent trial execution: makespan on an 8-trial grid",
        ["runtime", "makespan (s)", "speedup"],
        rows,
    )


def test_identical_selection_at_any_worker_count():
    """The full SelectionResult (ids, metrics, epochs) matches at 1 vs 4 workers."""
    result_1 = _experiment().run(backend=FunctionBackend(_train_fn), workers=1)
    result_4 = _experiment().run(backend=FunctionBackend(_train_fn), workers=4)
    assert [t.trial_id for t in result_1.trials] == [t.trial_id for t in result_4.trials]
    assert [t.metrics for t in result_1.trials] == [t.metrics for t in result_4.trials]
    assert [t.epochs_trained for t in result_1.trials] == [
        t.epochs_trained for t in result_4.trials
    ]
    assert result_1.best().trial_id == result_4.best().trial_id
