"""Observability layer: metrics registry, derivation, reports.

Every run metric comes from one producer, :mod:`repro.obs.derive` — a
pure post-hoc pass over a run's trace, so serial, pooled and
cache-served runs yield byte-identical metrics.  The engine's hot paths
carry no metrics hooks of their own.

Plus :mod:`repro.obs.report`, the self-contained HTML run report.
"""

from repro.obs.derive import (
    blocked_intervals,
    derive_metrics,
    metrics_dict,
    run_metrics,
    run_summary,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_openmetrics,
)
from repro.obs.report import render_report, write_report

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "blocked_intervals",
    "derive_metrics",
    "metrics_dict",
    "parse_openmetrics",
    "render_report",
    "run_metrics",
    "run_summary",
    "write_report",
]
