"""Unified observability: spans + metrics across select→train→spill→serve.

The telemetry substrate the ROADMAP's remaining items (auto-solver
profiling, SLO autoscaling) consume (see ``docs/observability.md``):

* :class:`Telemetry` — the enabled recorder: ``span``/``begin``/``event``
  with monotonic timestamps and parent links, a bounded event buffer,
  Chrome/Perfetto + JSONL export, and one :class:`MetricsRegistry`;
* :data:`NULL_TELEMETRY` — the shared no-op recorder every instrumented
  component defaults to; sites call it unguarded, and its no-op
  ``span``/``begin``/``end`` keep the disabled path inside the E16
  overhead budget;
* :class:`MetricsRegistry` / :class:`Histogram` — counters, gauges and
  bounded log-bucket histograms (percentiles within 0.5 % relative
  error, mergeable by adding buckets); every serving front-end records
  its request outcomes into a registry of its own;
* cross-process collection — process children record into their own
  recorder, ``drain()`` into the existing result channels, and the parent
  ``ingest()``\\ s, so one trace shows every process.

Wiring points: ``Experiment.run(telemetry=...)``,
``serve(telemetry=...)`` / ``serve_fleet(telemetry=...)``.
"""

from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.recorder import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
]
