"""The one perf gate behind the engine micro-benchmarks (E11, E12, E16).

``python3 -m bench`` owns every end-to-end wall-clock claim this repo makes
(``bench/README.md``).  The three engine micro-benchmarks it has no row for
get their gate from here — the only module under ``benchmarks/`` that reads
the environment, and it reads two switches:

* ``REPRO_PERF_CHECK=1`` — run the gates (the CI ``perf`` job): long
  measurement windows, every wall-clock assertion, and the comparison of
  fresh numbers against the committed ``BENCH_*.json``.  Without it a
  module measures briefly, prints its table and asserts only what holds on
  any machine (bit-exactness, byte budgets, allocation ratios), so tier-1
  gives the same verdict on one core or sixty-four.
* ``REPRO_PERF_LONG=1`` — regenerate: the gated run, after which the
  committed JSONs are rewritten with what it measured.  No other run writes
  them — an ordinary run on a slow laptop must not lower the committed floor.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest


def _switch(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


#: rewrite the committed JSONs (a regeneration run also holds the gates)
REGENERATE = _switch("REPRO_PERF_LONG")
#: run the wall-clock gates
PERF_CHECK = REGENERATE or _switch("REPRO_PERF_CHECK")

#: fraction of a committed number a fresh measurement must reach — generous
#: because CI hardware differs from the machine that wrote the JSON
COMMITTED_FLOOR = 0.5

#: marks a test that compares wall-clock measurements
perf_gate = pytest.mark.skipif(
    not PERF_CHECK, reason="wall-clock gates run with REPRO_PERF_CHECK=1"
)


def timed_window(
    step: Callable[[], object], min_seconds: float, warmup: int = 0
) -> Tuple[float, float]:
    """Call ``step`` for at least ``min_seconds`` (and three calls).

    Returns ``(calls_per_second, fastest_call_seconds)`` over the window,
    after ``warmup`` untimed calls.  The rate is what a throughput row
    reports; the fastest single call estimates the true floor far more
    tightly than any window average, which is what a ratio of two nearly
    equal paths needs.
    """
    for _ in range(warmup):
        step()
    fastest = float("inf")
    count = 0
    window_started = time.perf_counter()
    while True:
        started = time.perf_counter()
        step()
        now = time.perf_counter()
        fastest = min(fastest, now - started)
        count += 1
        elapsed = now - window_started
        if elapsed >= min_seconds and count >= 3:
            return count / elapsed, fastest


def write_committed(path: Path, payload: dict) -> None:
    """Rewrite a committed ``BENCH_*.json`` — on a regeneration run only."""
    if REGENERATE:
        path.write_text(json.dumps(payload, indent=2) + "\n")


def assert_no_regression(
    path: Path,
    committed_of: Callable[[dict], Dict[str, float]],
    fresh: Dict[str, float],
) -> None:
    """Fail when a fresh number fell below the floor of its committed one.

    ``committed_of`` picks ``{label: committed value}`` out of the loaded
    JSON (each benchmark has its own layout); ``fresh`` holds this run's
    measurement under the same labels.  Higher is better for every number
    gated this way.
    """
    committed = committed_of(json.loads(path.read_text()))
    failures = [
        f"{label}: {fresh[label]:.2f} < {value * COMMITTED_FLOOR:.2f} "
        f"({COMMITTED_FLOOR:.0%} of committed {value:.2f})"
        for label, value in committed.items()
        if fresh[label] < value * COMMITTED_FLOOR
    ]
    assert not failures, "performance regressions: " + "; ".join(failures)
