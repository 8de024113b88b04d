"""The metrics snapshot schema, with validators the tests share.

Every metrics surface in the stack reports through one of three documented
shapes, so dashboards and the future autoscaler can consume any of them
without per-component parsing:

**Latency snapshot** (``ModelServer.metrics()``, the fleet row and each
per-model row of the router report) —
a flat ``str -> float`` dict with exactly :data:`LATENCY_SNAPSHOT_KEYS`:
the counters in :data:`MONOTONIC_COUNTERS` never decrease between
snapshots of the same collector.

**Fleet report** (``FleetRouter.metrics()``) — ``{"fleet": <latency
snapshot>, "models": {name: <latency snapshot>}, "residency": {...},
"scheduler": {...}}`` with the residency/scheduler keys below.

**Registry snapshot** (``Telemetry.metrics_snapshot()``) —
``{"counters": {str: float}, "gauges": {str: float}, "histograms":
{str: summary}, "collectors": {str: dict}}`` where each histogram summary
carries :data:`HISTOGRAM_SUMMARY_KEYS`.

Validators raise :class:`SchemaError` naming the first violation and
return the snapshot unchanged, so they compose:
``validate_fleet_metrics(router.metrics())``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

#: keys (all float-valued) of one latency snapshot
LATENCY_SNAPSHOT_KEYS = (
    "completed",
    "rejected",
    "timed_out",
    "failed",
    "batches",
    "mean_batch_rows",
    "queue_depth_max",
    "queue_depth_mean",
    "throughput_rps",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "latency_mean_ms",
)

#: latency-snapshot keys that must never decrease across snapshots
MONOTONIC_COUNTERS = ("completed", "rejected", "timed_out", "failed", "batches")

#: keys of the router report's ``"residency"`` section: every ``SpillStats``
#: counter of the shared budget, plus the derived ones
RESIDENCY_KEYS = (
    "budget_bytes",
    "registered_bytes",
    "resident_bytes",
    "resident_models",
    "evictions",
    "clean_evictions",
    "restores",
    "demand_fetches",
    "prefetches_issued",
    "prefetches_completed",
    "prefetch_late",
    "acquire_waits",
    "bytes_evicted",
    "bytes_fetched",
)

#: keys of the router report's ``"scheduler"`` section
SCHEDULER_KEYS = ("queue_depths", "batches_dispatched", "stalls")

#: keys of one histogram summary in a registry snapshot
HISTOGRAM_SUMMARY_KEYS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")

#: top-level sections of a registry snapshot
REGISTRY_SECTIONS = ("counters", "gauges", "histograms", "collectors")


class SchemaError(ValueError):
    """A snapshot violated the documented schema."""


def _require_keys(snap: Mapping[str, Any], keys: Iterable[str], where: str) -> None:
    missing = [key for key in keys if key not in snap]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}; has {sorted(snap)}")


def validate_latency_snapshot(snap: Mapping[str, Any], where: str = "latency snapshot"):
    """Validate one flat latency snapshot (exact keys, numeric values)."""
    if not isinstance(snap, Mapping):
        raise SchemaError(f"{where}: expected a dict, got {type(snap).__name__}")
    _require_keys(snap, LATENCY_SNAPSHOT_KEYS, where)
    extra = sorted(set(snap) - set(LATENCY_SNAPSHOT_KEYS))
    if extra:
        raise SchemaError(f"{where}: undocumented keys {extra}")
    for key in LATENCY_SNAPSHOT_KEYS:
        value = snap[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(
                f"{where}: {key!r} must be numeric, got {type(value).__name__}"
            )
        if value < 0:
            raise SchemaError(f"{where}: {key!r} must be >= 0, got {value}")
    return snap


def validate_fleet_metrics(report: Mapping[str, Any], where: str = "fleet report"):
    """Validate a ``FleetRouter.metrics()`` report (all four sections)."""
    if not isinstance(report, Mapping):
        raise SchemaError(f"{where}: expected a dict, got {type(report).__name__}")
    _require_keys(report, ("fleet", "models", "residency", "scheduler"), where)
    validate_latency_snapshot(report["fleet"], f"{where}.fleet")
    if not isinstance(report["models"], Mapping):
        raise SchemaError(f"{where}.models: expected a dict")
    for name, snap in report["models"].items():
        validate_latency_snapshot(snap, f"{where}.models[{name!r}]")
    residency = report["residency"]
    _require_keys(residency, RESIDENCY_KEYS, f"{where}.residency")
    if not isinstance(residency["resident_models"], list):
        raise SchemaError(f"{where}.residency.resident_models must be a list")
    for key in ("registered_bytes", "resident_bytes", "evictions", "restores",
                "bytes_evicted", "bytes_fetched"):
        if residency[key] < 0:
            raise SchemaError(f"{where}.residency.{key} must be >= 0")
    scheduler = report["scheduler"]
    _require_keys(scheduler, SCHEDULER_KEYS, f"{where}.scheduler")
    if not isinstance(scheduler["queue_depths"], Mapping):
        raise SchemaError(f"{where}.scheduler.queue_depths must be a dict")
    return report


def validate_registry_snapshot(snap: Mapping[str, Any], where: str = "registry snapshot"):
    """Validate a ``Telemetry.metrics_snapshot()`` / registry snapshot."""
    if not isinstance(snap, Mapping):
        raise SchemaError(f"{where}: expected a dict, got {type(snap).__name__}")
    _require_keys(snap, REGISTRY_SECTIONS, where)
    for section in ("counters", "gauges"):
        for name, value in snap[section].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"{where}.{section}[{name!r}] must be numeric, "
                    f"got {type(value).__name__}"
                )
            if section == "counters" and value < 0:
                raise SchemaError(f"{where}.counters[{name!r}] must be >= 0")
    for name, summary in snap["histograms"].items():
        _require_keys(summary, HISTOGRAM_SUMMARY_KEYS, f"{where}.histograms[{name!r}]")
    for name, payload in snap["collectors"].items():
        if not isinstance(payload, Mapping):
            raise SchemaError(f"{where}.collectors[{name!r}] must be a dict")
    return snap


def assert_monotonic(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    keys: Iterable[str] = MONOTONIC_COUNTERS,
    where: str = "snapshot pair",
) -> None:
    """Assert the monotonic counters never decreased between two snapshots.

    Keys absent from either snapshot are skipped, so the same call works on
    full latency snapshots and on trimmed-down counter dicts.
    """
    for key in keys:
        if key not in before or key not in after:
            continue
        if after[key] < before[key]:
            raise SchemaError(
                f"{where}: counter {key!r} decreased ({before[key]} -> {after[key]})"
            )
