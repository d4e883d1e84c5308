"""Span-based structured tracing on the virtual clock.

A span is a begin/end pair of trace records (``span.begin`` /
``span.end``) emitted through the engine's normal ``trace`` hook, so spans
land in the same :class:`~repro.sim.Tracer` record stream as stream and
MPI events and export to Chrome B/E slices (see
:func:`repro.sim.to_chrome_trace`).

Spans are *opt-in*: they emit only when ``engine.obs_spans`` is true (set
by ``launcher.launch(obs="spans")``) and a trace hook is installed. At the
default observability level nothing is emitted — the byte-identity
guarantees of default traces are untouched.

Each record carries a ``seq`` counted per rank (the record's ``rank``
field, 0 without one), so begin/end pairs keep their emission order
through the Chrome exporter's deterministic sort, keyed ``(ts, (rank,
seq))``, even when several records share one virtual timestamp. A rank's
own records come out in program order however far its task runs ahead of
the clock (host charges are deferred under spans too), while the order
*across* ranks follows the host schedule: a per-engine count would carry
that schedule into the trace.
"""

from __future__ import annotations

from typing import Any

__all__ = ["span", "begin_span", "end_span", "spans_enabled"]


def spans_enabled(engine: Any) -> bool:
    """True when ``engine`` should emit span records right now."""
    return bool(getattr(engine, "obs_spans", False)) and engine.trace_hook is not None


def _emit(engine: Any, kind: str, name: str, cat: str, fields: dict) -> None:
    # The one dict of the record: it becomes the record's own fields.
    record = {"name": name, "cat": cat,
              "seq": engine.next_seq(("obs.span", fields.get("rank", 0)))}
    record.update(fields)
    engine.trace_fields(kind, record)


def begin_span(engine: Any, name: str, cat: str = "host", **fields: Any) -> None:
    """Open a span (no-op unless spans are enabled on ``engine``)."""
    if spans_enabled(engine):
        _emit(engine, "span.begin", name, cat, fields)


def end_span(engine: Any, name: str, cat: str = "host", **fields: Any) -> None:
    """Close the innermost open span of ``name`` on this rank's timeline."""
    if spans_enabled(engine):
        _emit(engine, "span.end", name, cat, fields)


class Span:
    """The context of :func:`span`, for a caller that has the span's fields
    in a dict already (read, never kept past the records it makes)."""

    __slots__ = ("engine", "name", "cat", "fields")

    def __init__(self, engine: Any, name: str, cat: str, fields: dict):
        self.engine = engine
        self.name = name
        self.cat = cat
        self.fields = fields

    def __enter__(self) -> None:
        if spans_enabled(self.engine):
            _emit(self.engine, "span.begin", self.name, self.cat, self.fields)
        else:
            self.engine = None  # nothing opened, nothing to close

    def __exit__(self, *exc: Any) -> None:
        if self.engine is not None:
            _emit(self.engine, "span.end", self.name, self.cat, self.fields)


def span(engine: Any, name: str, cat: str = "host", **fields: Any) -> Span:
    """Context manager bracketing a region with begin/end span records.

    ``cat`` classifies the region for the analyzer's time breakdown:
    ``"comm"`` (posts, collectives, group brackets), ``"sync"`` (barriers,
    stream/signal waits), ``"dispatch"`` (kernel launches); anything else
    is treated as generic host time. Extra ``fields`` (``rank``, ``gpu``,
    ``peer``, ``nbytes`` ...) ride on both records and feed the
    critical-path walk.
    """
    return Span(engine, name, cat, fields)
