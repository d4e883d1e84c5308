"""Observability: metrics registry, span tracing, post-run analysis.

The subsystem has three layers (docs/OBSERVABILITY.md):

- :class:`MetricsRegistry` — labelled counters/gauges/histograms collected
  on the host while the simulation runs (never a trace record, never a
  virtual-time charge). Every :class:`~repro.sim.Engine` owns one as
  ``engine.metrics``; backends and the Uniconn core feed it.
- **Spans** (:func:`span`/:func:`begin_span`/:func:`end_span`) — structured
  begin/end trace records on the virtual clock, layered over the existing
  :class:`~repro.sim.Tracer`. Spans are *off* at the default observability
  level so fast-path Chrome traces stay byte-identical; ``obs="spans"``
  turns them on and the Chrome exporter renders them as nested B/E slices.
- **Analysis** (:func:`analyze_records`, :func:`format_report`,
  :func:`validate_report`) — per-rank compute/comm/sync/idle breakdown and
  critical-path extraction over a recorded run; ``repro report`` is the
  CLI frontend.

This package intentionally imports nothing from the rest of ``repro`` so
the simulation engine can depend on it without cycles.
"""

from .analyze import (
    ObsReport,
    PathSegment,
    RankBreakdown,
    analyze_records,
    format_report,
)
from .metrics import SIZE_CLASSES, MetricsRegistry, record_transfer, size_class
from .schema import SCHEMA_NAME, SCHEMA_VERSION, validate_report
from .spans import begin_span, end_span, span, spans_enabled

__all__ = [
    "MetricsRegistry",
    "SIZE_CLASSES",
    "record_transfer",
    "size_class",
    "span",
    "begin_span",
    "end_span",
    "spans_enabled",
    "ObsReport",
    "PathSegment",
    "RankBreakdown",
    "analyze_records",
    "format_report",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "validate_report",
]
