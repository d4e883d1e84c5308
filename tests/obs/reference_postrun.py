"""The post-run passes as they were written first: the reference that
``tests/property/test_postrun_reference.py`` holds ``repro.sim.chrometrace``
and ``repro.obs.analyze`` to, byte for byte and value for value.

``to_chrome_trace`` builds a dict per record and sorts the decorated list
with ``groupby``; ``analyze_records`` sorts every record with a Python key
and copies the fields of each interval into an ``_Interval`` dataclass.
"""

import json
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.analyze import ObsReport, PathSegment, RankBreakdown
from repro.sim.trace import TraceRecord, Tracer

# --------------------------------------------------------------------------- #
# The Chrome exporter.
# --------------------------------------------------------------------------- #

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


# --------------------------------------------------------------------------- #
# The span analyzer.
# --------------------------------------------------------------------------- #

_EPS = 1e-12

# Priority sweep order: a microsecond both inside a kernel and inside a
# comm span is compute (the comm span is merely *open*, e.g. waiting on a
# stream-ordered collective the GPU is executing).
_COMPUTE, _COMM, _SYNC = "compute", "comm", "sync"
_PRIORITY = (_COMPUTE, _COMM, _SYNC)

#: Stream op-name prefixes that are communication, not compute.
_COMM_OP_PREFIXES = ("gpuccl-", "shmem-", "memcpy-", "mpi-")


@dataclass
class _Interval:
    start: float
    end: float
    bucket: str
    name: str
    cat: str
    fields: Dict[str, Any]


# --------------------------------------------------------------------------- #
# Interval extraction.
# --------------------------------------------------------------------------- #


def _record_sort_key(rec: Any) -> Tuple[float, int]:
    return (rec.t, rec.fields.get("seq", 0))


def _span_intervals(records: Iterable[Any]) -> Dict[int, List[_Interval]]:
    """Pair span.begin/span.end records into per-rank intervals.

    Unclosed spans are clipped at the last record's timestamp; an end
    without a matching begin is ignored (both only happen on aborted runs).
    """
    per_rank: Dict[int, List[_Interval]] = {}
    stacks: Dict[int, List[Any]] = {}
    last_t = 0.0
    for rec in records:
        last_t = max(last_t, rec.t)
        if rec.kind not in ("span.begin", "span.end"):
            continue
        rank = rec.fields.get("rank", 0)
        stack = stacks.setdefault(rank, [])
        if rec.kind == "span.begin":
            stack.append(rec)
            continue
        name = rec.fields.get("name")
        opener: Optional[Any] = None
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].fields.get("name") == name:
                opener = stack.pop(i)
                break
        if opener is None:
            continue
        cat = opener.fields.get("cat", "host")
        bucket = _COMM if cat in ("comm", "dispatch") else _SYNC if cat == "sync" else ""
        per_rank.setdefault(rank, []).append(
            _Interval(opener.t, rec.t, bucket, name or "?", cat, dict(opener.fields))
        )
    for rank, stack in stacks.items():
        for rec in stack:  # clip spans left open at the end of the run
            cat = rec.fields.get("cat", "host")
            bucket = _COMM if cat in ("comm", "dispatch") else _SYNC if cat == "sync" else ""
            per_rank.setdefault(rank, []).append(
                _Interval(rec.t, last_t, bucket, rec.fields.get("name", "?"), cat, dict(rec.fields))
            )
    return per_rank


def _gpu_rank_map(records: Iterable[Any]) -> Dict[Any, int]:
    """gpu-id -> rank, learned from span records that carry both fields."""
    mapping: Dict[Any, int] = {}
    for rec in records:
        if rec.kind == "span.begin":
            gpu = rec.fields.get("gpu")
            rank = rec.fields.get("rank")
            if gpu is not None and rank is not None and gpu not in mapping:
                mapping[gpu] = rank
    return mapping


def _stream_intervals(
    records: Iterable[Any], gpu_to_rank: Dict[Any, int]
) -> Dict[int, List[_Interval]]:
    """Pair stream.start/stream.complete records into per-rank intervals."""
    per_rank: Dict[int, List[_Interval]] = {}
    open_ops: Dict[Tuple, Any] = {}
    for rec in records:
        f = rec.fields
        if rec.kind == "stream.start":
            open_ops[(f.get("gpu"), f.get("stream"), f.get("op"))] = rec
        elif rec.kind == "stream.complete":
            started = open_ops.pop((f.get("gpu"), f.get("stream"), f.get("op")), None)
            if started is None:
                continue
            op = f.get("op", "?")
            if op.startswith("event:"):
                continue
            bucket = _COMM if op.startswith(_COMM_OP_PREFIXES) else _COMPUTE
            gpu = f.get("gpu")
            rank = gpu_to_rank.get(gpu, gpu if isinstance(gpu, int) else 0)
            per_rank.setdefault(rank, []).append(
                _Interval(started.t, rec.t, bucket, op, "stream", dict(f))
            )
    return per_rank


# --------------------------------------------------------------------------- #
# Breakdown.
# --------------------------------------------------------------------------- #


def _sweep(intervals: List[_Interval], total: float) -> Dict[str, float]:
    """Partition [0, total] by highest-priority covering bucket."""
    deltas: List[Tuple[float, int, str]] = []
    for iv in intervals:
        if not iv.bucket:
            continue
        start = max(0.0, min(iv.start, total))
        end = max(0.0, min(iv.end, total))
        if end - start <= _EPS:
            continue
        deltas.append((start, +1, iv.bucket))
        deltas.append((end, -1, iv.bucket))
    deltas.sort(key=lambda d: (d[0], d[1]))
    out = {_COMPUTE: 0.0, _COMM: 0.0, _SYNC: 0.0, "idle": 0.0}
    active = {_COMPUTE: 0, _COMM: 0, _SYNC: 0}
    prev = 0.0
    i = 0
    while i < len(deltas):
        t = deltas[i][0]
        seg = t - prev
        if seg > _EPS:
            for bucket in _PRIORITY:
                if active[bucket] > 0:
                    out[bucket] += seg
                    break
            else:
                out["idle"] += seg
        while i < len(deltas) and deltas[i][0] == t:
            _, sign, bucket = deltas[i]
            active[bucket] += sign
            i += 1
        prev = t
    if total - prev > _EPS:
        out["idle"] += total - prev
    return out


# --------------------------------------------------------------------------- #
# Critical path.
# --------------------------------------------------------------------------- #


def _critical_path(
    per_rank: Dict[int, List[_Interval]], total: float, max_segments: int = 256
) -> List[PathSegment]:
    """Backward walk from the makespan, hopping ranks at comm spans."""
    by_end: Dict[int, List[_Interval]] = {
        rank: sorted(ivs, key=lambda iv: (iv.end, iv.start))
        for rank, ivs in per_rank.items()
        if ivs
    }
    if not by_end:
        return []
    cur_rank = max(by_end, key=lambda r: by_end[r][-1].end)
    cur_t = min(total, by_end[cur_rank][-1].end)
    path: List[PathSegment] = []
    while cur_t > _EPS and len(path) < max_segments:
        ivs = by_end.get(cur_rank, [])
        chosen: Optional[_Interval] = None
        for iv in reversed(ivs):
            if iv.start < cur_t - _EPS:
                chosen = iv
                break
        if chosen is None:
            break
        end = min(chosen.end, cur_t)
        path.append(PathSegment(cur_rank, chosen.name, chosen.cat, chosen.start, end))
        cur_t = chosen.start
        peer = chosen.fields.get("peer")
        if chosen.bucket == _COMM and isinstance(peer, int) and peer in by_end:
            cur_rank = peer
    path.reverse()
    return path


# --------------------------------------------------------------------------- #
# Entry points.
# --------------------------------------------------------------------------- #


def analyze_records(
    records: Iterable[Any],
    n_ranks: Optional[int] = None,
    total_time: Optional[float] = None,
) -> ObsReport:
    """Build an :class:`ObsReport` from a run's trace records.

    ``records`` is any iterable of ``.kind``/``.t``/``.fields`` objects
    (e.g. ``Tracer.records``). ``n_ranks`` forces breakdown rows for ranks
    that emitted nothing; ``total_time`` overrides the makespan (defaults
    to the latest record timestamp).
    """
    recs = sorted(records, key=_record_sort_key)
    total = total_time if total_time is not None else (recs[-1].t if recs else 0.0)
    gpu_to_rank = _gpu_rank_map(recs)
    per_rank: Dict[int, List[_Interval]] = {}
    for rank, ivs in _span_intervals(recs).items():
        per_rank.setdefault(rank, []).extend(ivs)
    for rank, ivs in _stream_intervals(recs, gpu_to_rank).items():
        per_rank.setdefault(rank, []).extend(ivs)
    ranks = sorted(per_rank)
    if n_ranks is not None:
        ranks = sorted(set(ranks) | set(range(n_ranks)))
    breakdown = []
    for rank in ranks:
        buckets = _sweep(per_rank.get(rank, []), total)
        breakdown.append(
            RankBreakdown(
                rank=rank,
                compute=buckets[_COMPUTE],
                comm=buckets[_COMM],
                sync=buckets[_SYNC],
                idle=buckets["idle"],
                total=total,
            )
        )
    return ObsReport(
        total_time=total,
        ranks=breakdown,
        critical_path=_critical_path(per_rank, total),
    )
