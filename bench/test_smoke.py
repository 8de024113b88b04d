"""``pytest bench/`` — the benchmark runs, checks its outputs and reports.

Not collected by the tier-1 command (its ``testpaths`` are ``tests`` and
``benchmarks``): these tests start processes and take about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from bench import spec

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170, check=False,
    )


def test_manifest_is_the_spec_written_out():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_smoke_run_reports_every_metric_and_passes_its_checks():
    done = _run(ROOT, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            assert result["metrics"][f"{workload}/{metric.name}"] > 0


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "--workload", "select_spilled", "--seconds", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {metric.name for metric in spec.PER_LAYER}
    assert result["metrics"]["memory.evictions"]["value"] > 0
    assert result["metrics"]["runtime.pool_start_s"]["value"] == 0
    assert (ROOT / "bench" / "out" / "trace-select_spilled.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "serve_single", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
