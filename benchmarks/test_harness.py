"""The shared perf gate itself: floor rule, write rule, window loop, switches."""

from __future__ import annotations

import json

import pytest

import _harness


@pytest.fixture
def committed(tmp_path):
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps({"rows": {"fast": 100.0, "slow": 10.0}}) + "\n")
    return path


def _rows(payload):
    return payload["rows"]


def test_fresh_numbers_just_above_the_floor_pass(committed):
    floor = _harness.COMMITTED_FLOOR
    _harness.assert_no_regression(
        committed, _rows, {"fast": 100.0 * floor, "slow": 10.0 * floor + 0.01}
    )


def test_a_number_just_below_the_floor_fails_and_is_named(committed):
    with pytest.raises(AssertionError) as failure:
        _harness.assert_no_regression(committed, _rows, {"fast": 49.99, "slow": 10.0})
    assert str(failure.value).startswith(
        "performance regressions: fast: 49.99 < 50.00 (50% of committed 100.00)"
    )
    assert "slow" not in str(failure.value)


def test_only_a_regeneration_run_writes_the_committed_json(committed, monkeypatch):
    before = (committed.stat().st_mtime_ns, committed.read_bytes())
    monkeypatch.setattr(_harness, "REGENERATE", False)
    _harness.write_committed(committed, {"rows": {"fast": 1.0}})
    assert (committed.stat().st_mtime_ns, committed.read_bytes()) == before

    monkeypatch.setattr(_harness, "REGENERATE", True)
    _harness.write_committed(committed, {"rows": {"fast": 1.0}})
    assert committed.read_text() == '{\n  "rows": {\n    "fast": 1.0\n  }\n}\n'


def test_timed_window_makes_three_timed_calls_after_the_warmup():
    calls = []
    rate, fastest = _harness.timed_window(lambda: calls.append(1), 0.0, warmup=2)
    assert len(calls) == 2 + 3
    assert rate > 0 and 0 <= fastest < float("inf")


@pytest.mark.parametrize(
    "value, expected", [("1", True), ("yes", True), ("0", False), ("", False)]
)
def test_switch_values(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_PERF_CHECK", value)
    assert _harness._switch("REPRO_PERF_CHECK") is expected
    monkeypatch.delenv("REPRO_PERF_CHECK")
    assert _harness._switch("REPRO_PERF_CHECK") is False
