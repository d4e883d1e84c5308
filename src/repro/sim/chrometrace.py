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
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Tuple

from .trace import TraceRecord, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace"]

_US = 1e6  # chrome traces use microseconds

# Tie-break key of the canonical order: json.dumps(event, sort_keys=True),
# without building an encoder per event.
_content = json.JSONEncoder(sort_keys=True).encode


def to_chrome_trace(tracer: Tracer) -> List[dict]:
    """Convert collected records into chrome trace events."""
    events: List[dict] = []
    open_ops: Dict[Tuple, TraceRecord] = {}
    for rec in tracer.records:
        f = rec.fields
        if rec.kind == "stream.start":
            open_ops[(f.get("gpu"), f.get("stream"), f.get("op"))] = rec
        elif rec.kind == "stream.complete":
            key = (f.get("gpu"), f.get("stream"), f.get("op"))
            started = open_ops.pop(key, None)
            begin = started.t if started is not None else rec.t
            events.append({
                "name": f.get("op", "?"),
                "ph": "X",
                "ts": begin * _US,
                "dur": max(0.0, (rec.t - begin)) * _US,
                "pid": f.get("gpu", 0),
                "tid": f.get("stream", "?"),
                "cat": "stream",
            })
        elif rec.kind in ("span.begin", "span.end"):
            # Begin/end slices nest by a rank's emission order; its per-rank
            # span seq keeps that order through the deterministic sort below
            # even when several records share one virtual timestamp.
            rank = f.get("rank", 0)
            events.append({
                "name": f.get("name", "?"),
                "ph": "B" if rec.kind == "span.begin" else "E",
                "ts": rec.t * _US,
                "pid": rank,
                "tid": f.get("tid", "uniconn"),
                "cat": f.get("cat", "span"),
                "args": {
                    k: v
                    for k, v in f.items()
                    if k not in ("name", "cat", "tid") and isinstance(v, (int, float, str))
                },
                "__seq": (rank, f.get("seq", 0)),
            })
        else:
            events.append({
                "name": rec.kind,
                "ph": "i",
                "s": "t",
                "ts": rec.t * _US,
                "pid": f.get("gpu", f.get("src", 0)),
                "tid": f.get("stream", rec.kind),
                "cat": rec.kind.split(".")[0],
                "args": {k: v for k, v in f.items() if isinstance(v, (int, float, str))},
            })
    # Anything still open at the end (e.g. an op in flight when the run
    # stopped) is emitted as a zero-length marker so it stays visible.
    for (gpu, stream, op), rec in open_ops.items():
        events.append({
            "name": f"{op} (unfinished)",
            "ph": "i",
            "s": "t",
            "ts": rec.t * _US,
            "pid": gpu or 0,
            "tid": stream or "?",
            "cat": "stream",
        })
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
    when = itemgetter(0)
    keyed = sorted((((e["ts"], e.pop("__seq", ())), e) for e in events), key=when)
    events = []
    for _, tied in groupby(keyed, key=when):
        run = [e for _, e in tied]
        if len(run) > 1:
            run.sort(key=_content)
        events += run
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write ``{"traceEvents": [...]}`` to ``path``; returns the path."""
    # One dumps, one write: json.dump(obj, fh) never uses the C encoder.
    text = json.dumps({"traceEvents": to_chrome_trace(tracer)})
    with open(path, "w") as fh:
        fh.write(text)
    return path
