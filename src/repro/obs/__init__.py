"""Observability: metrics, critical-path attribution, network timelines.

The simulator can tell you *how long* an iteration took; this package tells
you *why*.  Three pillars:

- :mod:`repro.obs.registry` — a structured metrics registry (counters,
  gauges, histograms with labels) the fabric, engine, and fault injector
  publish into, with JSON and Prometheus-text exporters;
- :mod:`repro.obs.attribution` — critical-path analysis over the executed
  span timeline, producing a time-loss budget that attributes the makespan
  to compute / p2p / collective / pipeline-bubble / straggler / fault
  categories (and names the slowest links);
- :mod:`repro.obs.timeline` — per-link and per-NIC utilization over virtual
  time, exportable as Chrome-trace counter tracks.

:mod:`repro.obs.report` assembles all three into the self-contained profile
report emitted by ``repro profile`` and embedded per case by ``repro bench``.

Two campaign-level pillars (PR 7) look *across* iterations and runs:

- :mod:`repro.obs.flight` — the sweep flight recorder: an append-only
  event log narrating a whole campaign (dispatch / retry / respawn /
  quarantine / heartbeat), the live ``--progress`` renderer, and the
  Prometheus textfile exporter refreshed mid-sweep;
- :mod:`repro.obs.ledger` — the persistent run ledger behind ``repro
  runs`` and the cross-run BENCH trend view behind ``repro report
  --trend``.
"""

from repro.obs.attribution import (
    Category,
    AttributionReport,
    EdgeCost,
    attribute_iteration,
    attribute_result,
)
from repro.obs.flight import (
    CampaignState,
    FlightLog,
    FlightRecorder,
    SweepProgress,
    TextfileExporter,
    events_path_for,
    read_events,
    scenario_story,
    summarize_events,
)
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    bench_trend,
    load_bench_history,
    record_run,
    render_trend,
    trend_regressions,
)
from repro.obs.registry import Counter, Gauge, HistogramMetric, MetricsRegistry
from repro.obs.report import build_report, render_report, validate_report
from repro.obs.timeline import (
    UtilizationSeries,
    link_utilization,
    nic_utilization,
    utilization_counter_events,
)

__all__ = [
    "Category",
    "AttributionReport",
    "EdgeCost",
    "attribute_iteration",
    "attribute_result",
    "CampaignState",
    "FlightLog",
    "FlightRecorder",
    "SweepProgress",
    "TextfileExporter",
    "events_path_for",
    "read_events",
    "scenario_story",
    "summarize_events",
    "RunLedger",
    "RunRecord",
    "bench_trend",
    "load_bench_history",
    "record_run",
    "render_trend",
    "trend_regressions",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "build_report",
    "render_report",
    "validate_report",
    "UtilizationSeries",
    "link_utilization",
    "nic_utilization",
    "utilization_counter_events",
]
