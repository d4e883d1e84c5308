"""Happens-before race & memory sanitizer for the simulated GPU substrate.

The simulator executes every rank, stream and kernel as cooperative tasks
over one virtual clock, which makes the ordering contracts of the paper's
three backends (stream FIFO order, NCCL group semantics, SHMEM
signal/quiet ordering) mechanically checkable: any two accesses to the
same simulated device memory that are not connected by a happens-before
path could land in either order on real hardware, i.e. they are a data
race even if the simulated schedule happened to produce the right answer.

The sanitizer is strictly opt-in (``launch(..., sanitize="race")`` or the
``--sanitize`` CLI flag). With it off, every hook reduces to a single
``engine.sanitizer is None`` check and the event schedule — and therefore
the trace — is byte-identical to an uninstrumented run.

Model (FastTrack-style epochs over fixed-width vector clocks):

* An :class:`AccessCtx` is one strand of sequential execution: a simulated
  task, a stream op, or a scheduled callback. Each carries a vector clock
  ``vc``, an int64 array indexed by context id (a missing tail reads 0);
  accesses are stamped with the context's current epoch ``(id, tick)``.
* Happens-before edges come from the simulation's own synchronization
  primitives: ``SimEvent.set``/``wait``, ``Broadcast.notify_all``/``wait``
  (which underlie stream completion, MPI request completion, SHMEM
  signals, barriers and collectives), task spawn/join, and scheduled
  callbacks (issue happens-before delivery).
* Device buffers keep a shadow history of accesses (an access leaves it
  when a later, ordered access covers its range and conflict set); a new
  access that overlaps an earlier one of a conflicting kind with no
  happens-before path produces a :class:`RaceReport`.
* The only reader of a clock component is that check
  (``vc[prev.ctx_id] >= prev.tick``), so an id matters only while it is
  *alive*: a shadow access is stamped with it, or a context holds it and
  can still record one. Contexts are single-use (a callback run, a stream
  op, a finished task give their id up when they leave the stack); a
  given-up id passes only to a context already ordered after everything
  done under it (the next op of a stream, the next delivery on a path),
  never to an unrelated one; and a dead id's slot in every clock goes to
  the next new id, whose ticks start above any the slot ever held — which
  keeps every clock as wide as the most ids ever alive at once, whatever
  the length of the run.

Access kinds: ``r`` read, ``w`` write, ``rw`` conservative kernel access,
``aw`` atomic write (signal updates — unordered atomics do not race with
each other), ``free`` deallocation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["AccessCtx", "RaceReport", "Sanitizer", "resolve_mode"]

# kinds that CONFLICT with the key kind when unordered
_CONFLICTS: Dict[str, Tuple[str, ...]] = {
    "r": ("w", "rw", "free"),
    "w": ("r", "w", "rw", "aw", "free"),
    "rw": ("r", "w", "rw", "aw", "free"),
    "aw": ("r", "w", "rw", "free"),
    "free": ("r", "w", "rw", "aw", "free"),
}

# prev kinds whose conflict set is a subset of the key kind's: a prev access
# that is ordered-before and range-covered by the new one can be dropped.
_SUBSUMES: Dict[str, Tuple[str, ...]] = {
    cur: tuple(p for p, pc in _CONFLICTS.items() if set(pc) <= set(cc))
    for cur, cc in _CONFLICTS.items()
}


def resolve_mode(value) -> Optional[str]:
    """A ``sanitize=`` setting as ``None`` (off: None/False) or ``"race"``
    (True/``"race"``); anything else is an error."""
    if value is None or value is False:
        return None
    if value is True or value == "race":
        return "race"
    raise ValueError(f"unknown sanitize mode {value!r} "
                     f"(expected None, False, True or 'race')")


class AccessCtx:
    """One strand of sequential execution, with its vector clock.

    Vector clocks are copy-on-write: a fork shares the parent's array and
    freezes it (both sides copy before their next mutation), so pure
    control-flow chains never pay for copies.
    """

    __slots__ = ("id", "tick", "handed", "vc", "owns", "rank", "stream", "note",
                 "kernel")

    def __init__(self, vc: np.ndarray, owns: bool, rank=None, stream=None,
                 note=None, kernel=None):
        self.id: Optional[int] = None  # allocated lazily on first access
        self.tick = 0  # the last tick written under ``id``
        # The clock was handed out (a fork, a release) since that tick: the
        # next access gets a new epoch, which ``_epoch`` writes into the
        # clock then — hand-outs with no access in between share one.
        self.handed = False
        self.vc = vc
        self.owns = owns
        self.rank = rank
        self.stream = stream
        self.note = note
        self.kernel = kernel


class _SyncClock:
    """A sync object's vector clock: copy-on-write like a context's. The
    object itself holds it (as ``_san_clock``), so the clock lives exactly
    as long as what it orders and points back at nothing."""

    __slots__ = ("vc", "owns")

    def __init__(self, vc: np.ndarray):
        self.vc = vc
        self.owns = False


class _Access:
    """One recorded access in a buffer's shadow history."""

    __slots__ = ("ctx_id", "tick", "kind", "start", "stop", "rank", "stream",
                 "note", "t")

    def __init__(self, ctx_id, tick, kind, start, stop, rank, stream, note, t):
        self.ctx_id = ctx_id
        self.tick = tick
        self.kind = kind
        self.start = start
        self.stop = stop
        self.rank = rank
        self.stream = stream
        self.note = note
        self.t = t

    def describe(self) -> dict:
        return {
            "rank": self.rank,
            "stream": self.stream,
            "op": self.note,
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "t": self.t,
        }


class _Shadow:
    """Per-buffer access history (pruned by subsumption in ``record``)."""

    __slots__ = ("label", "size", "accesses")

    def __init__(self, label: str, size: int):
        self.label = label
        self.size = size
        self.accesses: List[_Access] = []


def _describe_ctx(ctx: AccessCtx, kind: str, start: int, stop: int, note: str,
                  t: float) -> dict:
    return {
        "rank": ctx.rank,
        "stream": ctx.stream,
        "op": note,
        "kind": kind,
        "start": start,
        "stop": stop,
        "t": t,
    }


def _fmt_access(a: dict) -> str:
    where = f"rank {a['rank']}" if a["rank"] is not None else "host"
    stream = f" stream {a['stream']}" if a.get("stream") else ""
    return (f"{a['kind']} [{a['start']}:{a['stop']}) by {where}{stream} "
            f"in {a['op']!r} at t={a['t']:.3e}")


class RaceReport:
    """Structured description of one sanitizer finding.

    ``kind`` is ``"race"``, ``"use-after-free"`` or ``"out-of-bounds"``.
    ``first``/``second`` describe the two accesses (for oob there is only
    ``second``, the faulting access) with rank, stream, op/span name,
    virtual timestamp and element range.
    """

    __slots__ = ("kind", "buffer", "start", "stop", "first", "second")

    def __init__(self, kind: str, buffer: str, start: int, stop: int,
                 first: Optional[dict], second: dict):
        self.kind = kind
        self.buffer = buffer
        self.start = start
        self.stop = stop
        self.first = first
        self.second = second

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buffer": self.buffer,
            "start": self.start,
            "stop": self.stop,
            "first": self.first,
            "second": self.second,
        }

    def __str__(self) -> str:
        head = f"{self.kind}: {self.buffer}[{self.start}:{self.stop})"
        lines = [head]
        if self.first is not None:
            lines.append(f"  first : {_fmt_access(self.first)}")
        lines.append(f"  second: {_fmt_access(self.second)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RaceReport({self.kind!r}, {self.buffer!r}, [{self.start}:{self.stop}))"


class Sanitizer:
    """Happens-before race detector attached to one :class:`~repro.sim.Engine`.

    Attach by setting ``engine.sanitizer = Sanitizer(engine)`` before any
    task runs (``launch(..., sanitize="race")`` does this for you).
    """

    def __init__(self, engine, mode: str = "race", max_reports: int = 64):
        self.engine = engine
        self.mode = mode
        self.max_reports = max_reports
        self.reports: List[RaceReport] = []
        self.dropped = 0
        # Context ids are the indices of the clock arrays. The alive set:
        # id -> shadow accesses stamped with it, +1 while its context can
        # still record. An id not in here will never be looked up again.
        self._refs: Dict[int, int] = {}
        # Per id, the tick of its last access if its context has retired
        # while the id is still alive, else -1: a context whose clock holds
        # that very entry is ordered after all the id ever did and may carry
        # it on (``_epoch``).
        self._vacant = np.zeros(0, np.int64)
        # Dead ids, whose index the next new id takes, and per index the
        # highest tick ever written at it: a new id's ticks start above it.
        self._free: List[int] = []
        self._last: List[int] = []
        self._width = 0  # clocks are this long once written to
        self._root = AccessCtx(np.zeros(0, np.int64), owns=True, note="main")
        self._stack: List[AccessCtx] = []
        self._task_ctxs: Dict[object, AccessCtx] = {}
        # id(root DeviceBuffer) -> (root, _Shadow)
        self._shadows: Dict[int, Tuple[object, _Shadow]] = {}
        self._seen = set()
        # Self-accounting (``stats()``): exact, deterministic counts.
        self._n_contexts = 1
        self._n_ids = 0
        self._n_accesses = 0
        self._clock_ops = 0
        self._clock_visited = 0
        self._clock_peak = 0
        self._reuses = 0
        self._alive_peak = 0

    def stats(self) -> Dict[str, int]:
        """What the bookkeeping cost (``report.stats["sanitizer"]``).

        ``contexts`` were created and ``ids`` issued to those that recorded
        one of the ``accesses`` (fewer ids than such contexts: FIFO chains
        hand theirs on), at most ``alive_peak`` of them alive at once;
        ``id_reuses`` of them took the clock index of a dead one.
        ``clock_ops`` counts clock copies and joins,
        ``clock_entries_visited`` the entries they walked and
        ``clock_peak`` the longest single walk.
        """
        return {
            "contexts": self._n_contexts,
            "ids": self._n_ids,
            "accesses": self._n_accesses,
            "clock_ops": self._clock_ops,
            "clock_entries_visited": self._clock_visited,
            "clock_peak": self._clock_peak,
            "id_reuses": self._reuses,
            "alive_peak": self._alive_peak,
        }

    # ------------------------------------------------------------------ #
    # Contexts.
    # ------------------------------------------------------------------ #

    def current(self) -> AccessCtx:
        """The context of whatever code is running right now."""
        if self._stack:
            return self._stack[-1]
        task = self.engine._current
        if task is None:
            return self._root
        ctx = self._task_ctxs.get(task)
        if ctx is None:  # task predates the sanitizer; treat as root fork
            ctx = self.fork(self._root, note=getattr(task, "name", "task"))
            self._task_ctxs[task] = ctx
        return ctx

    def _visit(self, n: int) -> None:
        """Account for one walk over ``n`` clock entries (a copy or a join)."""
        self._clock_ops += 1
        self._clock_visited += n
        if n > self._clock_peak:
            self._clock_peak = n

    def _own(self, holder) -> np.ndarray:
        """The clock of ``holder`` (a context or a :class:`_SyncClock`) as
        an array it alone may mutate, ``_width`` long."""
        vc = holder.vc
        if not holder.owns or len(vc) < self._width:
            self._visit(len(vc))
            if len(vc) == self._width:
                vc = vc.copy()
            else:
                vc = np.concatenate((vc, np.zeros(self._width - len(vc), np.int64)))
            holder.vc = vc
            holder.owns = True
        return vc

    def _join(self, vc: np.ndarray, src: np.ndarray) -> None:
        """``vc`` := componentwise max of ``vc`` and ``src`` (``vc`` is
        owned, so at least as long)."""
        n = len(src)
        self._visit(n)
        if n < len(vc):
            vc = vc[:n]
        np.maximum(vc, src, out=vc)

    def _decref(self, cid: int) -> None:
        n = self._refs[cid] - 1
        if n:
            self._refs[cid] = n
        else:
            del self._refs[cid]
            self._vacant[cid] = -1
            self._free.append(cid)

    def _retire(self, ctx: AccessCtx) -> None:
        """``ctx`` has left the stack for good: it gives its id up. The id
        stays alive, and open to a successor, until the last shadow access
        that carries it is gone. (Should the context record again after
        all, ``_epoch`` finds it an id like any newcomer; its clock still
        covers what it did under the old one.)"""
        cid = ctx.id
        if cid is not None:
            ctx.id = None
            self._decref(cid)
            if cid in self._refs:
                self._vacant[cid] = ctx.tick

    def _epoch(self, ctx: AccessCtx) -> Tuple[int, int]:
        """The ``(id, tick)`` to stamp on an access ``ctx`` makes now."""
        if ctx.id is None:
            refs = self._refs
            held = ctx.vc
            # No clock holds more than its last tick for a vacant id, and one
            # that holds it is ordered after every access made under it:
            # continuing the id at the next tick orders exactly what a fresh
            # id would, with one clock entry for the whole chain.
            vacant = held == self._vacant[:len(held)]
            if vacant.any():
                cid = int(vacant.argmax())
                self._vacant[cid] = -1
                refs[cid] += 1
            else:
                # A new id. A dead one's index is free to take: every clock
                # holds at most its last tick there, below any the new id
                # writes, and no shadow access carries the dead one.
                if self._free:
                    cid = self._free.pop()
                    self._reuses += 1
                else:
                    cid = len(self._last)
                    self._last.append(0)
                    if cid >= self._width:
                        self._width = 2 * cid or 1
                        self._vacant = np.concatenate(
                            (self._vacant, np.full(self._width - cid, -1, np.int64)))
                self._n_ids += 1
                refs[cid] = 1
                if len(refs) > self._alive_peak:
                    self._alive_peak = len(refs)
            ctx.id = cid
        elif ctx.handed:  # first access since a hand-out
            cid = ctx.id
        else:
            return ctx.id, ctx.tick
        tick = self._last[cid] + 1
        ctx.tick = self._last[cid] = tick
        ctx.handed = False
        self._own(ctx)[cid] = tick
        return cid, tick

    def fork(self, parent: Optional[AccessCtx] = None, *, rank=None,
             stream=None, note=None) -> AccessCtx:
        """New context ordered after ``parent`` (default: after current).

        The parent's epoch advances so that its *later* accesses are not
        covered by the child's inherited clock.
        """
        if parent is None:
            parent = self.current()
        child = AccessCtx(parent.vc, owns=False,
                          rank=parent.rank if rank is None else rank,
                          stream=parent.stream if stream is None else stream,
                          note=parent.note if note is None else note)
        self._n_contexts += 1
        parent.owns = False
        parent.handed = True
        return child

    def push(self, ctx: AccessCtx) -> None:
        self._stack.append(ctx)

    def pop(self) -> None:
        """Leave the innermost pushed context, which is then spent."""
        self._retire(self._stack.pop())

    def bind_rank(self, rank: int) -> None:
        """Attribute the current context (a rank's task) to ``rank``."""
        self.current().rank = rank

    # ------------------------------------------------------------------ #
    # Happens-before edges.
    # ------------------------------------------------------------------ #

    def release(self, obj) -> None:
        """current ──► obj: join the current clock into the object's."""
        ctx = self.current()
        clock = getattr(obj, "_san_clock", None)
        if clock is None:
            # First release into this object (the common case: a request,
            # a delivery slot): share the releaser's clock, frozen.
            ctx.owns = False
            obj._san_clock = _SyncClock(ctx.vc)
        elif clock.vc is not ctx.vc:
            self._join(self._own(clock), ctx.vc)
        ctx.handed = True

    def acquire(self, obj) -> None:
        """obj ──► current: join the object's clock into the current one."""
        self._acquire_into(self.current(), obj)

    def _acquire_into(self, ctx: AccessCtx, obj) -> None:
        clock = getattr(obj, "_san_clock", None)
        if clock is not None and clock.vc is not ctx.vc:
            self._join(self._own(ctx), clock.vc)

    def run_acquired(self, obj, fn) -> None:
        """Run ``fn`` in a fork of the current context ordered after ``obj``.

        Used for watcher/predicate callbacks fired inline by a notifier:
        the callback acts on behalf of the waiter, which is ordered after
        the release it observed, not merely after the notifier.
        """
        child = self.fork()
        self._acquire_into(child, obj)
        self._stack.append(child)
        try:
            fn()
        finally:
            self.pop()

    def wrap_callback(self, fn):
        """Wrap an ``Engine.schedule`` callback: issue happens-before fire."""
        child = self.fork()

        def run():
            self._stack.append(child)
            try:
                fn()
            finally:
                self.pop()

        return run

    # --- tasks -------------------------------------------------------- #

    def on_spawn(self, task) -> None:
        self._task_ctxs[task] = self.fork(note=getattr(task, "name", "task"))

    def on_finish_task(self, task) -> None:
        ctx = self._task_ctxs.pop(task, None)
        if ctx is not None:
            self._stack.append(ctx)
            try:
                self.release(task)
            finally:
                self.pop()

    def on_join(self, task) -> None:
        self.acquire(task)

    # --- streams ------------------------------------------------------ #

    def snapshot_enqueue(self, op, stream) -> AccessCtx:
        """Freeze the enqueuer's clock; merged back in when the op starts."""
        return self.fork(note=getattr(op, "name", None),
                         stream=getattr(stream, "name", None))

    def push_op(self, op, stream) -> None:
        """Enter a stream op: FIFO predecessor chain ∨ enqueue snapshot."""
        enq = getattr(op, "_san_enq", None)
        child = self.fork(stream=getattr(stream, "name", None),
                          note=getattr(op, "name", None))
        # FIFO edge: ordered after the previous op's completion on this
        # stream (released by Stream._advance).
        self._acquire_into(child, stream)
        if enq is not None:
            self._join(self._own(child), enq.vc)
            # The op belongs to the rank that enqueued it, regardless of
            # which context happened to drive the stream advance (often a
            # neighbour's delivery callback).
            if enq.rank is not None:
                child.rank = enq.rank
            child.note = enq.note or child.note
        self._stack.append(child)

    @contextmanager
    def kernel_scope(self, name: str):
        """Mark the current context as executing kernel ``name``.

        Inside a kernel scope, ``DeviceBuffer.data`` accesses are recorded
        conservatively as read-writes over the whole buffer.
        """
        ctx = self.current()
        prev = ctx.kernel
        ctx.kernel = name
        try:
            yield
        finally:
            ctx.kernel = prev

    # ------------------------------------------------------------------ #
    # Accesses.
    # ------------------------------------------------------------------ #

    def _resolve(self, buf):
        local = getattr(buf, "local", None)  # SymBuffer -> local DeviceBuffer
        if local is not None:
            buf = local
        else:
            dev = getattr(buf, "dev", None)  # RmaBuffer -> backing buffer
            if dev is not None:
                buf = dev
        root = getattr(buf, "root", None)
        if root is None:
            return None  # host numpy array etc. — out of scope
        return root, getattr(buf, "_offset", 0), buf

    def _shadow_for(self, root) -> _Shadow:
        ent = self._shadows.get(id(root))
        if ent is None:
            n = self.engine.next_seq("sanbuf")
            dev = getattr(root, "device", None)
            where = f"gpu{getattr(dev, 'gpu_id', '?')}"
            label = f"{where}:buf{n}({root.size}x{root._array.dtype})"
            ent = (root, _Shadow(label, root.size))
            self._shadows[id(root)] = ent
        return ent[1]

    def on_data(self, buf) -> None:
        """Hook for ``DeviceBuffer.data``: record only inside kernels."""
        ctx = self.current()
        if ctx.kernel is None:
            return
        self.record(buf, "rw", note=ctx.kernel)

    def record(self, buf, kind: str, start: int = 0,
               count: Optional[int] = None, note: Optional[str] = None) -> None:
        """Record one access to simulated device memory and check races.

        An access is a settle point: a task in debt catches up here, once,
        before it reads or rewrites the shadow — so it touches memory in
        the order a task that slept each charge would, and never parks
        halfway through an update another task could interleave with."""
        res = self._resolve(buf)
        if res is None:
            return
        t = self.engine.now  # the one settle
        root, off, view = res
        a0 = off + start
        a1 = a0 + (view.size if count is None else count)
        ctx = self.current()
        if note is None:
            note = ctx.kernel or ctx.note or "host"
        sh = self._shadow_for(root)
        conflicts = _CONFLICTS[kind]
        subsumes = _SUBSUMES[kind]
        vc = ctx.vc
        known = len(vc)
        keep: List[_Access] = []
        for prev in sh.accesses:
            if prev.stop <= a0 or prev.start >= a1:
                keep.append(prev)
                continue
            ordered = prev.ctx_id < known and vc[prev.ctx_id] >= prev.tick
            if not ordered and prev.kind in conflicts:
                self._report("race", sh, prev.describe(),
                             _describe_ctx(ctx, kind, a0, a1, note, t),
                             max(a0, prev.start), min(a1, prev.stop))
            if ordered and prev.start >= a0 and prev.stop <= a1 \
                    and prev.kind in subsumes:
                self._decref(prev.ctx_id)
                continue  # subsumed: drop from the shadow history
            keep.append(prev)
        cid, tick = self._epoch(ctx)
        self._refs[cid] += 1
        self._n_accesses += 1
        keep.append(_Access(cid, tick, kind, a0, a1, ctx.rank, ctx.stream, note, t))
        sh.accesses = keep

    # ------------------------------------------------------------------ #
    # Memory-safety findings.
    # ------------------------------------------------------------------ #

    def record_free(self, buf) -> None:
        self.record(buf, "free", note="free")

    def report_uaf(self, buf) -> None:
        """Called from the freed-buffer check before it raises."""
        res = self._resolve(buf)
        if res is None:
            return
        t = self.engine.now  # settles first, as record does
        root, off, view = res
        sh = self._shadow_for(root)
        first = None
        for prev in sh.accesses:
            if prev.kind == "free":
                first = prev.describe()
        ctx = self.current()
        note = ctx.kernel or ctx.note or "host"
        self._report("use-after-free", sh, first,
                     _describe_ctx(ctx, "r", off, off + view.size, note, t),
                     off, off + view.size)

    def report_oob(self, buf, start: int, count: int, what: str) -> None:
        """A transfer addressed elements outside the symmetric window."""
        t = self.engine.now  # settles first, as record does
        res = self._resolve(buf)
        label = res and self._shadow_for(res[0]).label or "<window>"
        ctx = self.current()
        note = ctx.kernel or ctx.note or what
        second = _describe_ctx(ctx, "w", start, start + count, note, t)
        self._emit(RaceReport("out-of-bounds", label, start, start + count,
                              None, second))

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    def _report(self, kind: str, sh: _Shadow, first: Optional[dict],
                second: dict, lo: int, hi: int) -> None:
        f = first or {}
        key = (kind, sh.label, f.get("op"), f.get("kind"), f.get("rank"),
               second["op"], second["kind"], second["rank"])
        if key in self._seen:
            return
        self._seen.add(key)
        self._emit(RaceReport(kind, sh.label, lo, hi, first, second))

    def _emit(self, report: RaceReport) -> None:
        if len(self.reports) >= self.max_reports:
            self.dropped += 1
            return
        self.reports.append(report)
        eng = self.engine
        if eng.metrics.enabled:
            eng.metrics.inc("sanitizer_reports_total", kind=report.kind)
        second = report.second
        eng.trace(
            "sanitize." + report.kind,
            buffer=report.buffer,
            lo=report.start,
            hi=report.stop,
            src=second.get("rank") if second.get("rank") is not None else 0,
            stream=str(second.get("stream") or "host"),
            first=_fmt_access(report.first) if report.first else "",
            second=_fmt_access(second),
        )
