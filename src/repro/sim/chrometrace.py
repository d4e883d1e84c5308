"""Export a :class:`Tracer`'s records as a Chrome-tracing timeline.

Open the produced JSON in ``chrome://tracing`` or Perfetto to see every
stream's operations and the MPI message flow of a run — the standard way to
debug overlap/serialization issues in this kind of system.

Stream ``start``/``complete`` pairs become duration ("X") events on one row
per (GPU, stream); span ``begin``/``end`` records (repro.obs, emitted when
a run opts into ``obs="spans"``) become nested duration ("B"/"E") events on
one row per rank; point records (enqueues, sends, receives) become instant
("i") events.
"""

from __future__ import annotations

import json
from itertools import compress, islice
from operator import eq
from typing import Dict, List, Tuple

from .trace import TraceRecord, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_US = 1e6  # chrome traces use microseconds

# Tie-break key of the canonical order: json.dumps(event, sort_keys=True),
# without building an encoder per event.
_content = json.JSONEncoder(sort_keys=True).encode

# An event's ``args`` keep the fields whose value is an int, float or str
# (bool and other subclasses included). When every value is of one of these
# exact types, that is all of them.
_SCALAR = (int, float, str)
_SCALAR_TYPES = frozenset((int, float, str, bool))


def _scalars(fields: dict) -> dict:
    if _SCALAR_TYPES.issuperset(map(type, fields.values())):
        return fields.copy()
    return {k: v for k, v in fields.items() if isinstance(v, _SCALAR)}


def to_chrome_trace(tracer: Tracer) -> List[dict]:
    """Convert collected records into chrome trace events."""
    events: List[dict] = []
    # Each event's key in the canonical order (see below), index for index.
    keys: List[tuple] = []
    event, key = events.append, keys.append
    open_ops: Dict[Tuple, TraceRecord] = {}
    for rec in tracer.records:
        kind, f = rec.kind, rec.fields
        if kind == "span.begin" or kind == "span.end":
            # Begin/end slices nest by a rank's emission order; its per-rank
            # span seq keeps that order through the deterministic sort below
            # even when several records share one virtual timestamp.
            rank = f.get("rank", 0)
            ts = rec.t * _US
            args = _scalars(f)
            args.pop("name", None)
            args.pop("cat", None)
            args.pop("tid", None)
            event({
                "name": f.get("name", "?"),
                "ph": "B" if kind == "span.begin" else "E",
                "ts": ts,
                "pid": rank,
                "tid": f.get("tid", "uniconn"),
                "cat": f.get("cat", "span"),
                "args": args,
            })
            key((ts, (rank, f.get("seq", 0))))
        elif kind == "stream.start":
            open_ops[(f.get("gpu"), f.get("stream"), f.get("op"))] = rec
        elif kind == "stream.complete":
            started = open_ops.pop((f.get("gpu"), f.get("stream"), f.get("op")), None)
            begin = started.t if started is not None else rec.t
            ts = begin * _US
            event({
                "name": f.get("op", "?"),
                "ph": "X",
                "ts": ts,
                "dur": max(0.0, (rec.t - begin)) * _US,
                "pid": f.get("gpu", 0),
                "tid": f.get("stream", "?"),
                "cat": "stream",
            })
            key((ts, ()))
        else:
            ts = rec.t * _US
            event({
                "name": kind,
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": f.get("gpu", f.get("src", 0)),
                "tid": f.get("stream", kind),
                "cat": kind.split(".")[0],
                "args": _scalars(f),
            })
            key((ts, ()))
    # Anything still open at the end (e.g. an op in flight when the run
    # stopped) is emitted as a zero-length marker so it stays visible.
    for (gpu, stream, op), rec in open_ops.items():
        ts = rec.t * _US
        event({
            "name": f"{op} (unfinished)",
            "ph": "i",
            "s": "t",
            "ts": ts,
            "pid": gpu or 0,
            "tid": stream or "?",
            "cat": "stream",
        })
        key((ts, ()))
    # Canonical order: viewers sort by ts anyway, and tie-breaking on the
    # event's full content makes the file independent of the incidental
    # ordering of same-instant callbacks inside the engine — so two runs
    # (one deferring host charges, one sleeping them) that simulate the
    # same timeline emit byte-identical traces. Span events additionally
    # sort by (rank, per-rank seq) before the content tie-break, so B/E
    # nesting survives same-timestamp ties and ranks interleave the same
    # way whatever order the host ran them in; every other event keys on
    # () and sorts before the spans of its instant, leaving the
    # default-level ordering (and byte-identity) untouched. Most events
    # (every span) are alone at their key, so the content key is computed
    # only inside the runs that tie on both.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    events = list(map(events.__getitem__, order))
    keys = list(map(keys.__getitem__, order))
    # i is in ``ties`` when event i has the key of event i - 1.
    ties = compress(range(1, len(keys)), map(eq, keys, islice(keys, 1, None)))
    runs: List[List[int]] = []  # [first, last] of each run of tied events
    for i in ties:
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i - 1, i])
    for first, last in runs:
        events[first:last + 1] = sorted(events[first:last + 1], key=_content)
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write ``{"traceEvents": [...]}`` to ``path``; returns the path."""
    # One dumps, one write: json.dump(obj, fh) never uses the C encoder.
    text = json.dumps({"traceEvents": to_chrome_trace(tracer)})
    with open(path, "w") as fh:
        fh.write(text)
    return path
