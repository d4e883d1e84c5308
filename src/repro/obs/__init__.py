"""Observability: metrics registry, span tracing, post-run analysis.

The subsystem has three layers (docs/OBSERVABILITY.md):

- :class:`MetricsRegistry` — labelled counters/gauges/histograms collected
  on the host while the simulation runs (never a trace record, never a
  virtual-time charge). Every :class:`~repro.sim.Engine` owns one as
  ``engine.metrics``; backends and the Uniconn core feed it.
- **Spans** (:func:`span`/:func:`begin_span`/:func:`end_span`) — structured
  begin/end trace records on the virtual clock, layered over the existing
  :class:`~repro.sim.Tracer`. Spans are *off* at the default observability
  level so default Chrome traces stay byte-identical; ``obs="spans"``
  turns them on and the Chrome exporter renders them as nested B/E slices.
- **Analysis** (:func:`analyze_records`, :func:`format_report`,
  :func:`validate_report`) — per-rank compute/comm/sync/idle breakdown and
  critical-path extraction over a recorded run; ``repro report`` is the
  CLI frontend.

This package intentionally imports nothing from the rest of ``repro`` so
the simulation engine can depend on it without cycles. The analysis layer
(``analyze``, ``schema``) loads on first use: the registry and the span
helpers are what every run — and a cached ``repro submit`` — needs.
"""

from importlib import import_module

from .metrics import SIZE_CLASSES, MetricsRegistry, SeriesBy, size_class
from .spans import begin_span, end_span, span, spans_enabled

#: Analysis name -> the submodule that defines it (resolved on first use).
_LAZY = {
    "ObsReport": "analyze",
    "PathSegment": "analyze",
    "RankBreakdown": "analyze",
    "analyze_records": "analyze",
    "format_report": "analyze",
    "SCHEMA_NAME": "schema",
    "SCHEMA_VERSION": "schema",
    "validate_report": "schema",
}

__all__ = [
    "MetricsRegistry",
    "SIZE_CLASSES",
    "SeriesBy",
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


def __getattr__(name: str):
    """Resolve an analysis name on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value
