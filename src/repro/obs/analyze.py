"""Post-run analysis over recorded trace events.

Consumes the record stream a :class:`~repro.sim.Tracer` collected during a
run with spans enabled (``obs="spans"``) and produces:

- a per-rank **time breakdown** — compute / comm / sync / idle seconds that
  sum to the run's virtual makespan. GPU kernel executions (stream ``X``
  intervals whose op is not a communication primitive) count as compute;
  ``comm``/``dispatch`` spans and communication stream ops count as comm;
  ``sync`` spans count as sync; uncovered time is idle. Overlapping
  intervals resolve by priority (compute > comm > sync) so the four
  buckets partition the timeline exactly;
- a **critical path** — a backward walk from the last activity of the
  last-finishing rank, hopping to the peer rank at communication spans
  that carry a ``peer`` field, approximating the dependency chain that
  determined the makespan.

Everything here is duck-typed over objects with ``.kind`` / ``.t`` /
``.fields`` attributes; this module imports nothing from the rest of
``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "RankBreakdown",
    "PathSegment",
    "ObsReport",
    "analyze_records",
    "format_report",
]

_EPS = 1e-12

# Priority sweep order: a microsecond both inside a kernel and inside a
# comm span is compute (the comm span is merely *open*, e.g. waiting on a
# stream-ordered collective the GPU is executing).
_COMPUTE, _COMM, _SYNC = "compute", "comm", "sync"
_PRIORITY = (_COMPUTE, _COMM, _SYNC)

#: Stream op-name prefixes that are communication, not compute.
_COMM_OP_PREFIXES = ("gpuccl-", "shmem-", "memcpy-", "mpi-")


@dataclass
class RankBreakdown:
    """Per-rank partition of the run's virtual time into four buckets."""

    rank: int
    compute: float
    comm: float
    sync: float
    idle: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "rank": self.rank,
            "compute": self.compute,
            "comm": self.comm,
            "sync": self.sync,
            "idle": self.idle,
            "total": self.total,
        }


@dataclass
class PathSegment:
    """One hop of the critical path."""

    rank: int
    name: str
    cat: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
        }


@dataclass
class ObsReport:
    """Everything ``analyze_records`` extracts from one run."""

    total_time: float
    ranks: List[RankBreakdown] = field(default_factory=list)
    critical_path: List[PathSegment] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "virtual_time": self.total_time,
            "ranks": [r.as_dict() for r in self.ranks],
            "critical_path": [s.as_dict() for s in self.critical_path],
        }


# An interval is a tuple ``(start, end, bucket, name, cat, peer)``: ``bucket``
# is "" for time that counts as none of the three, ``peer`` the ``peer``
# field of the record that opened it (None without one).


def _bucket(cat: str) -> str:
    return _COMM if cat in ("comm", "dispatch") else _SYNC if cat == "sync" else ""


# --------------------------------------------------------------------------- #
# Interval extraction.
# --------------------------------------------------------------------------- #


def _intervals(records: List[Any]) -> Tuple[Dict[int, list], Dict[int, list]]:
    """Pair span.begin/span.end and stream.start/stream.complete records, in
    ``(t, seq)`` order, into per-rank span and stream intervals.

    Unclosed spans are clipped at the latest timestamp; an end without a
    matching begin is ignored (both only happen on aborted runs). A stream
    op's rank is that of the first span that names its GPU, else the GPU id
    itself (0 when that is not an int); ``event:`` ops are markers, not work.
    """
    spans: Dict[int, list] = {}
    stacks: Dict[int, list] = {}
    gpu_to_rank: Dict[Any, int] = {}
    ops: list = []  # (gpu, interval) of every paired stream op
    open_ops: Dict[Tuple, Any] = {}
    last_t = 0.0
    for rec in records:
        t, kind, f = rec.t, rec.kind, rec.fields
        if t > last_t:
            last_t = t
        if kind == "span.begin":
            stacks.setdefault(f.get("rank", 0), []).append(rec)
            gpu = f.get("gpu")
            if gpu is not None and gpu not in gpu_to_rank and f.get("rank") is not None:
                gpu_to_rank[gpu] = f["rank"]
        elif kind == "span.end":
            rank = f.get("rank", 0)
            stack = stacks.get(rank, ())
            name = f.get("name")
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].fields.get("name") == name:
                    opener = stack.pop(i)
                    break
            else:
                continue
            of = opener.fields
            cat = of.get("cat", "host")
            spans.setdefault(rank, []).append(
                (opener.t, t, _bucket(cat), name or "?", cat, of.get("peer")))
        elif kind == "stream.start":
            open_ops[(f.get("gpu"), f.get("stream"), f.get("op"))] = rec
        elif kind == "stream.complete":
            started = open_ops.pop((f.get("gpu"), f.get("stream"), f.get("op")), None)
            if started is None:
                continue
            op = f.get("op", "?")
            if op.startswith("event:"):
                continue
            bucket = _COMM if op.startswith(_COMM_OP_PREFIXES) else _COMPUTE
            ops.append((f.get("gpu"), (started.t, t, bucket, op, "stream", f.get("peer"))))
    for rank, stack in stacks.items():
        for rec in stack:  # clip spans left open at the end of the run
            f = rec.fields
            cat = f.get("cat", "host")
            spans.setdefault(rank, []).append(
                (rec.t, last_t, _bucket(cat), f.get("name", "?"), cat, f.get("peer")))
    streams: Dict[int, list] = {}
    for gpu, iv in ops:
        rank = gpu_to_rank.get(gpu, gpu if isinstance(gpu, int) else 0)
        streams.setdefault(rank, []).append(iv)
    return spans, streams


# --------------------------------------------------------------------------- #
# Breakdown.
# --------------------------------------------------------------------------- #


def _sweep(intervals: list, total: float) -> Dict[str, float]:
    """Partition [0, total] by highest-priority covering bucket."""
    deltas: List[Tuple[float, int, str]] = []
    for start, end, bucket, _, _, _ in intervals:
        if not bucket:
            continue
        start = max(0.0, min(start, total))
        end = max(0.0, min(end, total))
        if end - start <= _EPS:
            continue
        deltas.append((start, +1, bucket))
        deltas.append((end, -1, bucket))
    deltas.sort(key=itemgetter(0, 1))
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
    per_rank: Dict[int, list], total: float, max_segments: int = 256
) -> List[PathSegment]:
    """Backward walk from the makespan, hopping ranks at comm spans."""
    by_end: Dict[int, list] = {
        rank: sorted(ivs, key=itemgetter(1, 0))  # (end, start)
        for rank, ivs in per_rank.items()
        if ivs
    }
    if not by_end:
        return []
    cur_rank = max(by_end, key=lambda r: by_end[r][-1][1])
    cur_t = min(total, by_end[cur_rank][-1][1])
    path: List[PathSegment] = []
    while cur_t > _EPS and len(path) < max_segments:
        ivs = by_end.get(cur_rank, [])
        for chosen in reversed(ivs):
            if chosen[0] < cur_t - _EPS:
                break
        else:
            break
        start, end, bucket, name, cat, peer = chosen
        path.append(PathSegment(cur_rank, name, cat, start, min(end, cur_t)))
        cur_t = start
        if bucket == _COMM and isinstance(peer, int) and peer in by_end:
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
    records = list(records)
    keys = [(rec.t, rec.fields.get("seq", 0)) for rec in records]
    recs = list(map(records.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))
    total = total_time if total_time is not None else (recs[-1].t if recs else 0.0)
    spans, streams = _intervals(recs)
    per_rank: Dict[int, list] = {}
    for rank, ivs in spans.items():
        per_rank.setdefault(rank, []).extend(ivs)
    for rank, ivs in streams.items():
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


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e6:10.1f}"


def format_report(report: ObsReport, max_path_segments: int = 12) -> str:
    """Render an :class:`ObsReport` as the ``repro report`` text table."""
    lines = []
    lines.append(f"virtual time: {report.total_time * 1e6:.1f} us")
    lines.append("")
    lines.append("per-rank breakdown (us):")
    header = f"{'rank':>4} {'compute':>10} {'comm':>10} {'sync':>10} {'idle':>10}   share"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.ranks:
        busy = r.compute + r.comm + r.sync
        share = (busy / r.total * 100.0) if r.total > 0 else 0.0
        lines.append(
            f"{r.rank:>4} {_fmt(r.compute)} {_fmt(r.comm)} {_fmt(r.sync)} "
            f"{_fmt(r.idle)}   {share:5.1f}%"
        )
    lines.append("")
    path = report.critical_path
    covered = sum(s.duration for s in path)
    lines.append(
        f"critical path: {len(path)} segments, "
        f"{covered * 1e6:.1f} us ({covered / report.total_time * 100.0:.1f}% of makespan)"
        if report.total_time > 0
        else "critical path: (empty run)"
    )
    shown = path[-max_path_segments:]
    if len(path) > len(shown):
        lines.append(f"  ... {len(path) - len(shown)} earlier segments elided ...")
    for seg in shown:
        lines.append(
            f"  [{seg.start * 1e6:10.1f} .. {seg.end * 1e6:10.1f}] "
            f"rank {seg.rank}  {seg.name}  ({seg.cat})"
        )
    return "\n".join(lines)
