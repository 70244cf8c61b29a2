"""Observability layer: metrics registry, derivation, reports.

Every run metric comes from one producer, :mod:`repro.obs.derive` — a
pure post-hoc pass over a run's trace, so serial, pooled and
cache-served runs yield byte-identical metrics.  The engine's hot paths
carry no metrics hooks of their own.

Plus :mod:`repro.obs.report`, the self-contained HTML run report;
:mod:`repro.obs.telemetry`, the fleet telemetry plane (span contexts,
worker journals, the live OpenMetrics scrape server); and
:mod:`repro.obs.fleet_report`, the fleet dashboard rendered from an
exported telemetry directory.
"""

from repro.obs.derive import (
    blocked_intervals,
    derive_metrics,
    metrics_dict,
    run_metrics,
    run_summary,
)
from repro.obs.fleet_report import render_fleet_report, write_fleet_report
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
    parse_openmetrics,
)
from repro.obs.report import render_report, write_report
from repro.obs.telemetry import (
    MetricsServer,
    SpanContext,
    WorkerJournal,
    current_context,
    fleet_registry,
    load_export,
    merge_journals,
    read_journals,
    serve_metrics,
    span_context,
    write_export,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "SpanContext",
    "WorkerJournal",
    "blocked_intervals",
    "current_context",
    "derive_metrics",
    "fleet_registry",
    "load_export",
    "merge_journals",
    "merge_registries",
    "metrics_dict",
    "parse_openmetrics",
    "read_journals",
    "render_fleet_report",
    "render_report",
    "run_metrics",
    "run_summary",
    "serve_metrics",
    "span_context",
    "write_export",
    "write_report",
]
