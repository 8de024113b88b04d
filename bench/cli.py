"""The runner: ``python3 -m bench [--workload NAME] [--seed N] [--trace]``.

Runs each workload in fresh subprocesses (``bench.worker``) — set-up probes
first, then the measuring process — checks its outputs, prints every metric
by name with unit, sample count and bound, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import spec

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
#: a worker that has not finished by then is killed (the driver allows 180 s)
WORKER_TIMEOUT_S = 170


def _worker_env(scratch: Path) -> Dict[str, str]:
    """The environment every worker starts in (recorded in the fingerprint)."""
    env = dict(os.environ)
    # One BLAS thread: at these sizes a second one doubles CPU time for the
    # same wall time and competes with the program's own threads.  Must be
    # set before numpy is imported, hence here and not in the worker.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # tempfile users inside the program (trial snapshots) stay in the checkout.
    env["TMPDIR"] = str(scratch)
    return env


def _run_worker(args: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Start one worker, wait for it, return the JSON on its last line."""
    command = [sys.executable, "-m", "bench.worker", *args,
               "--spawned-at", repr(time.time())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, Any]:
    """Run one workload end to end; return its full report."""
    scratch = OUT / "tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = _worker_env(scratch)
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        base.append("--smoke")
    try:
        probes = 0 if smoke else spec.SETUP_SAMPLES - 1
        setups = [_run_worker([*base, "--setup-only"], env)["setup_s"] for _ in range(probes)]
        report = _run_worker([*base, "--trace", str(int(trace))], env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(report.pop("setup_s"))
    report["metrics"]["setup_s"] = (statistics.median(setups), len(setups))
    report.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    report["correct"] = all(report["checks"].values()) and report["failed"] == 0
    (OUT / f"result-{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def contract_line(report: Dict[str, Any]) -> str:
    """The driver's result line: end-to-end metrics, or per-layer when traced."""
    if report["trace"]:
        layers = report["layers"]
        metrics = {
            m.name: {"value": float(layers.get(m.name, 0.0)), "unit": m.unit}
            for m in spec.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": report["metrics"][m.name][0], "unit": m.unit}
            for m in spec.END_TO_END
        }
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    })


def print_report(report: Dict[str, Any]) -> None:
    """Every metric by name with unit, n and bound; checks; fingerprint."""
    print(f"\n== {report['workload']}  (seed {report['seed']}, {report['seconds']} s, "
          f"trace {'on' if report['trace'] else 'off'})")
    print(f"   why: {spec.WORKLOADS[report['workload']]}")
    if report["trace"]:
        print("   end-to-end (measured on the untraced cycles of this traced run; "
              "bounds apply to --trace 0 runs)")
    print(f"   {'metric':<22}{'value':>14} {'unit':<6}{'n':>5}  bound")
    for metric in spec.END_TO_END:
        value, count = report["metrics"][metric.name]
        print(f"   {metric.name:<22}{value:>14.4f} {metric.unit:<6}{count:>5}  "
              f"{metric.better} is better, may worsen {metric.bound:.0%}")
    print(f"   ops_attempted {report['attempted']}   ops_failed {report['failed']}")
    for check, passed in report["checks"].items():
        print(f"   check {check}: {'ok' if passed else 'FAILED'}")
    for key, value in report["diagnostics"].items():
        print(f"   {key}: {value}")
    if report["trace"]:
        print(f"\n   {'per-layer metric':<34}{'value':>16} unit")
        for metric in spec.PER_LAYER:
            value = float(report["layers"].get(metric.name, 0.0))
            print(f"   {metric.name:<34}{value:>16.5f} {metric.unit}")
        shares = sum(report["layers"].get(f"{layer}.self_share", 0.0) for layer in spec.LAYERS)
        print(f"   sum of layer self_shares: {shares:.3f}")
    print(f"   machine: {json.dumps(report['fingerprint'])}")


# --------------------------------------------------------------------------- #
# --selfcheck
# --------------------------------------------------------------------------- #
def selfcheck(sets: int, seconds: float) -> int:
    """Run the full set ``sets`` times, alternating order and seed; compare.

    Fails when an end-to-end metric of any workload (``setup_s`` apart) strays
    from its median over the sets by more than half its bound, when any
    output check fails, or when a lateness flag fires.
    """
    names = list(spec.WORKLOADS)
    values: Dict[tuple, List[float]] = {}
    problems: List[str] = []
    for index in range(sets):
        order = names if index % 2 == 0 else names[::-1]
        seed = spec.DEFAULT_SEED if index % 2 == 0 else spec.SECOND_SEED
        for name in order:
            report = run_workload(name, seed, seconds, trace=False)
            print_report(report)
            if not report["correct"]:
                problems.append(f"set {index}: {name} failed its output checks")
            if report["diagnostics"].get("lateness_flag"):
                problems.append(f"set {index}: {name} lateness flag")
            for metric in spec.END_TO_END:
                values.setdefault((name, metric), []).append(report["metrics"][metric.name][0])
    print(f"\n== selfcheck over {sets} sets")
    print(f"   {'workload':<16}{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'max dev':>9}  half bound")
    for (name, metric), samples in values.items():
        median = statistics.median(samples)
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        deviation = max(abs(sample - median) for sample in samples) / median
        verdict = "ok"
        if metric.name == "setup_s":
            # Three process starts per run: held to its bound by the median
            # over many runs (as the driver does), not run by run.
            verdict = "not held run by run"
        elif deviation > metric.bound / 2:
            verdict = "TOO NOISY"
            problems.append(f"{name}/{metric.name} deviates {deviation:.1%}")
        print(f"   {name:<16}{metric.name:<20}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{deviation:>9.1%}  {metric.bound / 2:.1%} {verdict}")
    for problem in problems:
        print(f"   PROBLEM: {problem}")
    return 1 if problems else 0


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"drives every generated input (default {spec.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help=f"seconds one run measures for (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="record spans and print the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="one short cycle per workload (under 20 s for the set)")
    parser.add_argument("--selfcheck", nargs="?", type=int, const=3, default=0, metavar="SETS",
                        help="run the full set SETS (default 3) times and compare the sets")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck(max(args.selfcheck, 3), args.seconds)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    reports = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
               for name in names]
    for report in reports:
        print_report(report)
    if args.workload:
        print(contract_line(reports[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{name}": value[0]
                        for r in reports for name, value in r["metrics"].items()},
        }))
    # Every run printed its result: whether the outputs were right is the
    # ``correct`` field's job, not the exit code's.
    return 0
