"""Graph capture & replay for steady-state iteration loops.

Long Jacobi/CG runs repeat an identical communication/compute DAG every
iteration, yet the engine re-schedules every event from scratch.  This
module records the engine's event timeline into a compact replay IR and —
once consecutive iterations prove structurally identical — replays whole
blocks of iterations as one fused, pre-resolved schedule that only
recomputes virtual-time offsets and payload effects (the simulated
analogue of CUDA Graphs capture/replay).

Replay IR
---------

While capture is enabled every fired timer becomes one ``_Entry`` in a
ring buffer:

- its *tag* ``(parent, delay, order)`` — the absolute index of the entry
  whose window scheduled it, the scheduling delay, and the per-window
  scheduling sequence number.  Together with the parent's fire time the
  tag fully determines the fire time (``parent.when + delay``), because a
  timer is always scheduled at the current virtual time and the engine's
  clock never runs backwards;
- its *window*: the ordered items produced between this fire and the
  next — trace records (``"r"``), payload effects (``"e"``: a keyed
  ``np.copyto``-style closure registered by the backends), schedules
  (``"s"``) and region boundary markers (``"b"``).

Fingerprinting
--------------

Applications annotate their steady-state loop with a
:class:`CaptureRegion` (:func:`loop_region`) and call
``boundary(rank, i, n)`` once per iteration.  The first rank to
arrive becomes the *reference* rank; its boundary marker cuts the
timeline into per-iteration segments.  When the last two periods of
``d`` iterations are bit-identical — entry tags,
trace-record fields, effect keys, schedule/boundary items, callback
extents, stream enqueue/complete balance, no task spawns, no link
congestion — the loop has converged to a steady state and the period is
promoted to a replay template.

Replay ("frontier takeover")
----------------------------

A takeover admits only a fully quiescent scheduler: an empty ready
queue, every frozen heap timer tagged, uncancelled, and matching the
template's schedule multiset exactly (what the template scheduled but
did not fire inside one period must be exactly the pending frontier).
Then, for ``K`` periods, the replay walks the template entries directly:
it advances ``engine.now`` with the same float arithmetic live
scheduling performs, re-emits the recorded trace records verbatim, and
re-runs the payload-effect closures against the *live* buffers — so
solver data advances value-exactly while per-event scheduler work
(timer heap, task handoffs) is skipped entirely.  Finally the pending
frontier timers are re-timed ``K`` periods later (standing in for the
in-flight tail of the last replayed iteration; their stale payload
deliveries are freshened from the template's re-snapshotted data),
engine name-sequences and metrics deltas are applied, and every rank's
loop consumes the skipped iterations through its next ``boundary()``.

Device-order marks (async-host loops)
-------------------------------------

A fully asynchronous host loop (GPUCCL/GPUSHMEM native variants)
enqueues every iteration without blocking: all of its ``boundary()``
calls land in one timer window, the marks collapse onto a single entry
index, and the detector can never cut the timeline into periods.  When
the reference rank sees three consecutive marks with an identical entry
index it switches the region to *device-mark* mode — provided the
caller passed its stream to ``boundary(..., stream=...)``.  From then
on every boundary call enqueues a silent :class:`_BoundaryOp` on the
rank's stream; the marker records the mark when the *device* reaches it
(stream FIFO order), which restores per-iteration periodicity.  A
device-mode takeover sizes ``K`` from the whole periods of markers
still queued (the host has already enqueued that work) and, instead of
granting the host loop skipped iterations, fast-forwards every attached
stream's queue past the replayed span.  Markers are invisible: they
emit no trace records, count in no stream balance, and take zero
virtual time, so an async captured run still traces byte-identically to
an uncaptured one.  If no stream is available — or the device marks
collapse too — capture disables itself with a recorded
``boundary-collapse:<region>`` reason instead of silently staying live.

Bailout rules
-------------

Anything nondeterministic or structurally unstable falls back to live
execution, which is trivially byte-identical: an installed fault
injector or sanitizer disables capture at launch; a communicator
revocation (``Engine.fence``) disables it mid-run; a watchdog, link
congestion, a structure or frontier mismatch, a cancelled or untagged
pending timer, or a too-short remaining tail each veto an individual
takeover and count one bailout.
"""

from __future__ import annotations

import heapq
from collections import Counter
from math import frexp, gcd, ldexp
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

__all__ = ["CaptureRuntime", "CaptureRegion", "loop_region"]

# Largest structural period (in iterations) probed by the detector.
_MAX_D = 4
# Ring housekeeping: prune when the ring exceeds this many entries.
_RING_PRUNE = 4096
# Entries of slack kept behind the oldest mark any region still needs.
_RING_SLACK = 512


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class _Entry:
    """One fired timer: its tag plus the window of items it produced."""

    __slots__ = ("when", "parent", "delay", "order", "items", "cb_end")

    def __init__(self, when: float, parent: int, delay: float, order: int):
        self.when = when
        self.parent = parent
        self.delay = delay
        self.order = order
        self.items: List[tuple] = []
        self.cb_end = 0


class _Mark:
    """Reference-rank boundary: where one iteration cut the timeline."""

    __slots__ = ("i", "idx", "item_idx", "order", "enq", "comp", "spawn",
                 "seqs", "counters", "hists")

    def __init__(self, i, idx, item_idx, order, enq, comp, spawn, seqs,
                 counters, hists):
        self.i = i
        self.idx = idx              # absolute entry index of the window
        self.item_idx = item_idx    # marker's position in the window
        self.order = order          # schedule counter at the marker
        self.enq = enq              # stream enqueues so far
        self.comp = comp            # stream completions so far
        self.spawn = spawn          # tasks spawned so far
        self.seqs = seqs            # engine._name_seqs snapshot
        self.counters = counters    # metrics counter snapshot
        self.hists = hists          # metrics histogram snapshot


class _NullRegion:
    """Boundary sink used when capture is off: zero skips, zero cost."""

    __slots__ = ()

    def boundary(self, rank: int, i: int, n: Optional[int] = None,
                 stream=None) -> int:
        return 0


_NULL_REGION = _NullRegion()


class _BoundaryOp:
    """Silent stream op marking one iteration boundary in device order.

    Enqueued by :meth:`CaptureRegion.boundary` once a region has switched
    to device-mark mode.  It implements just enough of the ``StreamOp``
    surface for :class:`repro.gpu.stream.Stream` to carry it, and its
    ``silent`` flag keeps it out of traces, stream enqueue/complete
    balances and the sanitizer — the op exists only for the capture
    runtime and costs zero virtual time, so captured async runs still
    trace byte-identically to uncaptured ones.
    """

    silent = True

    __slots__ = ("engine", "name", "done", "completed_at", "stream",
                 "region", "rank", "i")

    def __init__(self, engine, region: "CaptureRegion", rank: int, i: int):
        from .sync import SimEvent

        self.engine = engine
        self.name = f"capture-boundary:{region.key}"
        self.done = SimEvent(engine, name=f"op:{self.name}")
        self.completed_at = None
        self.stream = None
        self.region = region
        self.rank = rank
        self.i = i

    def start(self) -> None:
        if self.region.rt.disabled is None:
            self.region._device_mark(self)
        self._complete()

    def _complete(self) -> None:
        self.completed_at = self.engine.now
        self.done.set()
        stream, self.stream = self.stream, None  # as StreamOp._complete
        if stream is not None:
            stream._advance(self)


def loop_region(engine, name: str, *, parity: int = 1, min_period: int = 1):
    """Region handle for an iteration loop; a no-op sink if capture is off."""
    cap = getattr(engine, "capture", None)
    if cap is None:
        return _NULL_REGION
    return cap.region(name, parity=parity, min_period=min_period)


class CaptureRegion:
    """One annotated steady-state loop (shared by every rank's task)."""

    __slots__ = ("rt", "key", "parity", "min_period",
                 "ref_rank", "last_i", "pending", "history", "keep",
                 "device_mode", "streams", "n_total")

    def __init__(self, rt: "CaptureRuntime", key: str, parity: int,
                 min_period: int):
        self.rt = rt
        self.key = key
        self.parity = max(1, int(parity))
        self.min_period = max(1, int(min_period))
        self.ref_rank: Optional[int] = None
        self.last_i: Dict[int, int] = {}
        self.pending: Dict[int, int] = {}
        self.history: List[_Mark] = []
        self.keep: Optional[int] = None  # oldest entry this region needs
        # Device-mark mode (async-host loops; see module docstring).
        self.device_mode = False
        self.streams: Dict[int, Any] = {}  # rank -> stream carrying markers
        self.n_total: Optional[int] = None

    # ------------------------------------------------------------------ #

    def boundary(self, rank: int, i: int, n: Optional[int] = None,
                 stream=None) -> int:
        """Mark the top of iteration ``i``; returns iterations to skip.

        The caller must advance its loop counter by the returned skip (the
        iterations were replayed) before deciding whether to run the body.
        Async-host loops pass their ``stream`` so a collapsing region can
        fall back to device-order markers instead of disabling capture.
        """
        rt = self.rt
        skip = self.pending.pop(rank, 0) if self.pending else 0
        self.last_i[rank] = i + skip
        if rt.disabled is not None:
            return skip
        if self.ref_rank is None:
            self.ref_rank = rank
        if self.device_mode:
            self._enqueue_marker(rank, i + skip, n, stream)
            return skip
        cur = rt._cur
        if rank != self.ref_rank:
            cur.items.append(("b", self.key, rank))
            return skip
        self._record_mark(i + skip)
        marks = self.history
        if len(marks) >= 3 and marks[-1].idx == marks[-3].idx:
            # Host marks collapsed: an async loop enqueued three iterations
            # inside one timer window, so host-side marks can never cut the
            # timeline.  Hand the job to device-order markers when the
            # caller gave us its stream; otherwise disable loudly so the
            # run reports why replay never engaged.
            self.device_mode = True
            self.history.clear()
            self.keep = None
            rt._update_keep()
            self._enqueue_marker(rank, i + skip, n, stream)
            return skip
        if (skip == 0 and n is not None
                and len(marks) >= 2 * self.min_period + 1):
            skip += self._try_replay(n)
        self._trim_ring()
        return skip

    def _record_mark(self, i: int) -> None:
        """Append one reference-rank mark cut at the current ring position."""
        rt = self.rt
        eng = rt.engine
        metrics = eng.metrics
        cur = rt._cur
        m = len(cur.items)
        cur.items.append(("b", self.key, self.ref_rank))
        self.history.append(_Mark(
            i, rt._abs, m, rt._order, rt.n_enq, rt.n_comp, rt.n_spawn,
            dict(eng._name_seqs),
            metrics.counter_values() if metrics.enabled else {},
            {k: (h.count, h.sum, dict(h.buckets))
             for k, h in metrics._histograms.items()} if metrics.enabled else {},
        ))

    def _trim_ring(self) -> None:
        # Ring housekeeping: everything older than the oldest mark the
        # detector can still use is dead weight.
        marks = self.history
        if marks:
            lo = marks[-(2 * _MAX_D + 1)] if len(marks) > 2 * _MAX_D + 1 else marks[0]
            self.keep = lo.idx
            self.rt._update_keep()

    # ------------------------------------------------------------------ #
    # Device-mark mode.
    # ------------------------------------------------------------------ #

    def _enqueue_marker(self, rank: int, i: int, n: Optional[int],
                        stream) -> None:
        """Queue a silent boundary marker on the rank's stream."""
        rt = self.rt
        if stream is None:
            # No stream to carry device marks: collapse is unrecoverable.
            rt.disable(f"boundary-collapse:{self.key}")
            return
        self.streams[rank] = stream
        if n is not None:
            self.n_total = n
        stream.enqueue(_BoundaryOp(rt.engine, self, rank, i))

    def _device_mark(self, op: _BoundaryOp) -> None:
        """A marker reached the head of its stream: record in device order."""
        rt = self.rt
        if op.rank != self.ref_rank:
            rt._cur.items.append(("b", self.key, op.rank))
            return
        self._record_mark(op.i)
        marks = self.history
        if len(marks) >= 3 and marks[-1].idx == marks[-3].idx:
            # Even device-order marks collapse (a zero-event loop body):
            # there is no third timeline to fall back to.
            rt.disable(f"boundary-collapse:{self.key}")
            return
        if (self.n_total is not None
                and len(marks) >= 2 * self.min_period + 1):
            self._try_replay(self.n_total)
        self._trim_ring()

    # ------------------------------------------------------------------ #

    def _try_replay(self, n: int) -> int:
        # Three consecutive bit-identical periods (four marks) gate the
        # takeover.  Two would admit replay while the timeline is still
        # settling: early iterations carry decaying queueing and ULP-level
        # rounding wobble that can repeat once by coincidence, and a replay
        # admitted there extrapolates delays live would not reproduce.
        marks = self.history
        d = self.min_period
        while d <= _MAX_D and len(marks) >= 3 * d + 1:
            m3, m2, m1, m0 = (marks[-1], marks[-1 - d],
                              marks[-1 - 2 * d], marks[-1 - 3 * d])
            if (m3.i - m2.i == d and m2.i - m1.i == d and m1.i - m0.i == d
                    and self._verify(m0, m1, m2)
                    and self._verify(m1, m2, m3)):
                return self._takeover(m1, m2, m3, d, n)
            d += 1
        return 0

    def _verify(self, m0: _Mark, m1: _Mark, m2: _Mark) -> bool:
        """Are the periods (b0, b1] and (b1, b2] structurally identical?"""
        rt = self.rt
        b0, b1, b2 = m0.idx, m1.idx, m2.idx
        L = b1 - b0
        if L <= 0 or b2 - b1 != L or b0 < rt._base:
            return rt._bail("structure")
        if not (m0.item_idx == m1.item_idx == m2.item_idx
                and m0.order == m1.order == m2.order):
            return rt._bail("marker-shape")
        # Stream/spawn balance: an enqueue-ahead imbalance or a task spawn
        # means the period is not self-contained.  In device-mark mode the
        # host enqueued the whole loop up front, so only the per-period
        # *deltas* must repeat (enqueues are all behind us, completions
        # drain at a steady per-period rate); the live enq==comp cross
        # check would always fail there.
        if (m1.enq - m0.enq != m2.enq - m1.enq
                or m1.comp - m0.comp != m2.comp - m1.comp
                or (not self.device_mode
                    and m2.enq - m1.enq != m2.comp - m1.comp)):
            return rt._bail("stream-imbalance")
        if m1.spawn != m0.spawn or m2.spawn != m1.spawn:
            return rt._bail("task-spawn")
        if rt._congestion >= b0 and not rt.congestion_safe:
            # Queued transfers leave absolute busy_until anchors on links.
            # With a registered link shifter (congestion_safe) those anchors
            # translate exactly by the takeover span, and the queueing delays
            # themselves are already encoded in the verified entry delays —
            # periodic congestion extrapolates exactly.  Without a shifter,
            # stay conservative and fall back to live execution.
            return rt._bail("congestion")
        ents, base = rt._entries, rt._base
        m = m2.item_idx
        for k in range(1, L + 1):
            ea = ents[b0 + k - base]
            eb = ents[b1 + k - base]
            if (ea.parent - b0 != eb.parent - b1 or ea.delay != eb.delay
                    or ea.order != eb.order):
                return rt._bail("structure")
            # Device marks fire mid-callback: the entry holding the newest
            # mark hasn't reached on_fired yet, so its cb_end is still
            # unset.  Like the head-only items compare below, skip the
            # cb_end check for that one still-open entry.
            if ea.cb_end != eb.cb_end and not (
                    k == L and self.device_mode and b2 == rt._abs):
                return rt._bail("structure")
            # Replay resolves fire times from a two-period rolling window;
            # a timer chained from further back cannot be re-timed.
            if eb.parent < b0 + 1:
                return rt._bail("long-chain")
            # k == L compares win(b1) vs the current partial window win(b2):
            # heads only (win(b2) ends at the marker just appended).
            hi = None if k < L else m + 1
            if not _items_equal(ea.items, eb.items, hi=hi):
                return rt._bail("structure")
        # Tails after the marker (the segment replay re-emits per period).
        if not _items_equal(ents[b0 - base].items, ents[b1 - base].items,
                            lo=m + 1):
            return rt._bail("structure")
        return True

    def _takeover(self, m0: _Mark, m1: _Mark, m2: _Mark, d: int, n: int) -> int:
        """Validate the frontier, then replay K periods in one fused pass.

        Every check runs before any mutation: a veto leaves the live run
        untouched.
        """
        rt = self.rt
        eng = rt.engine
        b0, b1, b2 = m0.idx, m1.idx, m2.idx
        L = b1 - b0
        m, m_ord = m2.item_idx, m2.order
        ents, base = rt._entries, rt._base
        if eng._ready:
            return rt._bail_int("ready-queue")
        if eng.watchdog_timeout is not None:
            return rt._bail_int("watchdog")
        k0 = _lcm(d, self.parity) // d
        if self.device_mode:
            # The host already enqueued the whole loop; replay can only
            # cover iterations whose ops sit fully queued on *every*
            # attached stream.  Advancing a stream K periods must pop
            # exactly K periods' worth of queue *items*: popping by marker
            # count alone would strand each stream's partial-iteration
            # phase, re-running body ops whose effects the replay already
            # applied (and double-registering their P2P matches).
            qinfo = []
            K = None
            for s in self.streams.values():
                pos = [j for j, qop in enumerate(s._queue)
                       if qop.__class__ is _BoundaryOp]
                if len(pos) < d + 1:
                    return rt._bail_int("tail-too-short")
                span = pos[d] - pos[0]  # queue items per period
                if span <= 0:
                    return rt._bail_int("queue-shape")
                k_s = (len(pos) - 1) // d
                K = k_s if K is None else min(K, k_s)
                qinfo.append((s, pos, span))
            if K is None:
                K = 0
        else:
            K = (n - 1 - max(self.last_i.values())) // d
        K -= K % k0
        if K < k0:
            return rt._bail_int("tail-too-short")
        # --- binade clamp -----------------------------------------------
        # Live delay chains are float-translation-invariant only while the
        # virtual clock stays inside one power-of-two binade: ulp(now) is
        # constant there, so every add rounds identically period after
        # period (which is also why the verified periods matched bit for
        # bit).  Crossing into the next binade doubles the grid and
        # perturbs low-bit rounding, so extrapolated times would drift from
        # live by ULPs right after the boundary.  Clamp the replay to end
        # two periods short of the edge; live iterations carry the run
        # across it and replay re-engages after fresh verification.
        w0 = ents[b0 - base].when
        w1 = ents[b1 - base].when
        w2 = ents[b2 - base].when
        period_dt = w2 - w1
        if w0 <= 0.0 or period_dt <= 0.0:
            return rt._bail_int("binade")
        edge = ldexp(1.0, frexp(w0)[1])  # top of w0's binade
        k_edge = int((edge - w2) / period_dt) - 2
        if k_edge < K:
            K = k_edge - k_edge % k0 if k_edge >= k0 else 0
            if K < k0:
                return rt._bail_int("binade")
        if self.device_mode:
            # Queue layout must actually be periodic over the popped range:
            # marker K*d+1 sits exactly K periods of items past marker 1.
            for s, pos, span in qinfo:
                if pos[K * d] - pos[0] != K * span:
                    return rt._bail_int("queue-shape")
        # --- frozen frontier --------------------------------------------
        frozen = sorted(eng._heap)  # exact pop order: (when, seq, Timer)
        for _, _, t in frozen:
            if t.cancelled:
                return rt._bail_int("cancelled-timer")
            tag = t.cap
            if tag is None:
                return rt._bail_int("untagged-timer")
            p, _, order = tag
            if p < b1 or (p == b1 and order < m_ord):
                return rt._bail_int("stale-frontier")
        # Template lookup: the entry that fired this schedule's previous-
        # period copy tells the frontier timer its slot and freshen set.
        tmpl: Dict[tuple, int] = {}
        for k in range(L):
            e = ents[b1 + 1 + k - base]
            tmpl[(e.parent + L, e.delay, e.order)] = k
        slots = []
        for _, _, t in frozen:
            slot = tmpl.get(t.cap)
            if slot is None:
                return rt._bail_int("frontier-mismatch")
            slots.append(slot)
        # Schedule multiset: everything the template period scheduled must
        # have either fired inside the period or still be pending.
        expected: Counter = Counter()

        def count_sched(widx: int, lo: int, hi: Optional[int]) -> None:
            for it in ents[widx - base].items[lo:hi]:
                if it[0] == "s":
                    expected[(widx, it[1], it[2])] += 1

        count_sched(b1, m + 1, None)
        for w in range(b1 + 1, b2):
            count_sched(w, 0, None)
        count_sched(b2, 0, m + 1)
        seen: Counter = Counter(t.cap for _, _, t in frozen)
        for j in range(b1 + 1, b2 + 1):
            e = ents[j - base]
            if e.parent > b1 or (e.parent == b1 and e.order >= m_ord):
                seen[(e.parent, e.delay, e.order)] += 1
        if expected != seen:
            return rt._bail_int("schedule-multiset")

        # --- commit: fused replay ---------------------------------------
        S = K * d
        t_host0 = perf_counter()
        now0 = eng.now
        hook = eng.trace_hook
        template = [ents[b1 + 1 + k - base] for k in range(L)]
        head = ents[b1 - base].items[: m + 1]
        tail = ents[b1 - base].items[m + 1:]
        _emit(hook, eng.now, tail)
        prevt = [e.when for e in template]
        curt = [0.0] * L
        if hook is None:
            # Untraced fast lane: nothing reads the clock mid-replay and
            # record items are dead weight, so run the bare fire-time
            # recurrence over pre-extracted effect closures only.
            rs = [(b1 + 1 + k) - template[k].parent for k in range(L)]
            delays = [e.delay for e in template]
            fxs = [[it[2] for it in e.items if it[0] == "e"] for e in template]
            fxs[L - 1] = [it[2] for it in head if it[0] == "e"]
            tail_fx = [it[2] for it in tail if it[0] == "e"]
            for period in range(K):
                for k in range(L):
                    r = rs[k]
                    t = (curt[k - r] if r <= k else prevt[k - r + L]) + delays[k]
                    curt[k] = t
                    for fn in fxs[k]:
                        fn()
                if period != K - 1:
                    for fn in tail_fx:
                        fn()
                prevt, curt = curt, prevt
            eng._now = prevt[L - 1]
        else:
            for period in range(K):
                final = period == K - 1
                for k in range(L):
                    e = template[k]
                    r = (b1 + 1 + k) - e.parent
                    t = (curt[k - r] if r <= k else prevt[k - r + L]) + e.delay
                    curt[k] = t
                    eng._now = t
                    if k < L - 1:
                        _emit(hook, t, e.items)
                    elif final:
                        _emit(hook, t, head)
                    else:
                        _emit(hook, t, head)
                        _emit(hook, t, tail)
                prevt, curt = curt, prevt
        end_times = prevt  # swapped: times of the final period
        # --- deferred host-busy debts ------------------------------------
        # Tasks did not run during the replayed span, so each one's absolute
        # ``busy_until`` anchor (written the last time it executed, before
        # it blocked) is stale by exactly the span the clock jumped.  The
        # live run would have re-accrued the same debt one span later, so
        # translate every task's anchor forward — a long-settled debt stays
        # settled (the task's logical position advances by the same span),
        # while an unsettled one makes the first post-replay wake schedule
        # its catch-up (``busy_until - now`` in Engine.block) at the exact
        # virtual time live would have.
        span = end_times[L - 1] - ents[b2 - base].when
        for task in eng._tasks:
            task.busy_until += span
        # Backends with their own absolute anchors (queued eager sends'
        # arrival times, link occupancy) registered shifters at build time.
        for shift in eng.time_shift_hooks:
            shift(span)
        # --- re-time the frontier ---------------------------------------
        # In place, never rebound: a device-mark takeover runs inside a
        # timer callback, and Engine._select_next holds a local reference
        # to the heap across that callback.
        del eng._heap[:]
        KL = K * L
        for (_, _, t), slot in zip(frozen, slots):
            p, delay, order = t.cap
            base_t = end_times[p - b1 - 1] if p > b1 else curt[L - 1]
            t.when = base_t + delay
            t.cap = (p + KL, delay, order)
            te = template[slot]
            fresh = [it[2] for it in te.items[: te.cb_end]
                     if it[0] == "e" and it[3]]
            if fresh:
                t.callback = _freshened(t.callback, fresh)
            eng._seq += 1
            heapq.heappush(eng._heap, (t.when, eng._seq, t))
        # --- name sequences and metrics ---------------------------------
        for kind, v2 in m2.seqs.items():
            delta = v2 - m1.seqs.get(kind, 0)
            if delta:
                eng._name_seqs[kind] = eng._name_seqs.get(kind, 0) + delta * K
        if eng.metrics.enabled:
            _apply_metric_deltas(eng.metrics, m1, m2, K)
        # --- reseed the ring at the far side of the replayed span --------
        e2 = ents[b2 - base]
        seed = _Entry(end_times[L - 1], e2.parent + KL, e2.delay, e2.order)
        seed.items = list(head)
        seed.cb_end = e2.cb_end
        rt._entries = [seed]
        rt._base = rt._abs = b2 + KL
        rt._cur = seed
        rt._order = m_ord
        self.history.clear()
        self.keep = None
        if self.device_mode:
            # The replayed iterations' ops are already sitting in the
            # stream queues — the host enqueued them long ago.  Fast-forward
            # every attached queue by exactly K periods of items, keeping
            # its partial-iteration phase offset intact: the popped ops
            # never run — the template effects just re-applied their data —
            # and their ``done`` events release so nothing can hang on
            # them.  Each stream's in-flight op was re-timed with the
            # frontier above and stands in for its counterpart S
            # iterations later.
            for s, _pos, span in qinfo:
                q = s._queue
                for _ in range(K * span):
                    q.popleft().done.set()
            rt.device_replays += 1
        else:
            for rank in self.last_i:
                self.last_i[rank] += S
                if rank != self.ref_rank:
                    self.pending[rank] = S
        rt.replays += 1
        rt.events_replayed += KL
        rt.iterations_skipped += S
        rt.replay_host_seconds += perf_counter() - t_host0
        return S


def _items_equal(a: List[tuple], b: List[tuple], lo: int = 0,
                 hi: Optional[int] = None) -> bool:
    """Window-item equality over a slice; effect closures compare by key."""
    sa = a[lo:hi]
    sb = b[lo:hi]
    if len(sa) != len(sb):
        return False
    for x, y in zip(sa, sb):
        if x[0] != y[0]:
            return False
        if x[0] == "e":
            if x[1] != y[1]:
                return False
        elif x != y:
            return False
    return True


def _emit(hook, t: float, items: List[tuple]) -> None:
    """Re-emit one window: trace records verbatim, payload effects live."""
    for it in items:
        tag = it[0]
        if tag == "e":
            it[2]()
        elif tag == "r" and hook is not None:
            hook(it[1], t, dict(it[2]))


def _freshened(callback: Callable[[], None], fns: List[Callable[[], None]]):
    """Wrap a frontier callback to overwrite its stale payload delivery
    with the template's freshly re-snapshotted data."""
    def run() -> None:
        callback()
        for fn in fns:
            fn()
    return run


def _apply_metric_deltas(metrics, m1: _Mark, m2: _Mark, K: int) -> None:
    """Apply one period's metric delta K times (counters exactly;
    histogram float sums arithmetically, looped to mirror live order)."""
    counters = metrics._counters
    for key, v2 in m2.counters.items():
        delta = v2 - m1.counters.get(key, 0)
        if delta:
            counter = counters[key]
            for _ in range(K):
                counter.value += delta
    hists = metrics._histograms
    for key, (c2, s2, b2) in m2.hists.items():
        c1, s1, b1 = m1.hists.get(key, (0, 0.0, {}))
        hist = hists[key]
        hist.count += (c2 - c1) * K
        ds = s2 - s1
        for _ in range(K):
            hist.sum += ds
        for label, n2 in b2.items():
            dn = n2 - b1.get(label, 0)
            if dn:
                hist.buckets[label] = hist.buckets.get(label, 0) + dn * K


class CaptureRuntime:
    """Per-engine capture state: the entry ring, regions and counters.

    Installed on ``Engine.capture`` by the launcher when
    ``launch(capture="regions")`` asks for it; ``None`` (the default)
    keeps every engine hook at one attribute check.
    """

    def __init__(self, engine):
        self.engine = engine
        self.disabled: Optional[str] = None
        root = _Entry(0.0, -1, 0.0, -1)
        self._entries: List[_Entry] = [root]
        self._base = 0      # absolute index of _entries[0]
        self._abs = 0       # absolute index of the current window
        self._cur = root
        self._order = 0
        self._keep: Optional[int] = None
        self._congestion = -1  # last entry index that saw link queueing
        # True once the launcher registers a cluster-link busy_until
        # shifter into engine.time_shift_hooks; lets _verify accept
        # periodic link congestion instead of bailing out.
        self.congestion_safe = False
        self.n_enq = 0
        self.n_comp = 0
        self.n_spawn = 0
        self.regions: Dict[str, CaptureRegion] = {}
        self.replays = 0
        self.device_replays = 0
        self.events_replayed = 0
        self.iterations_skipped = 0
        self.replay_host_seconds = 0.0
        self.bailouts: Counter = Counter()

    def close(self) -> None:
        """Let go of the regions (each points back here) once the run's
        counters have been read; the launcher's last use of a runtime."""
        self.regions.clear()

    # ------------------------------------------------------------------ #
    # Engine hooks (hot path).
    # ------------------------------------------------------------------ #

    def on_fire(self, timer) -> None:
        tag = timer.cap
        if tag is not None:
            e = _Entry(self.engine._now, tag[0], tag[1], tag[2])
        else:
            e = _Entry(self.engine._now, -1, 0.0, -1)
        self._abs += 1
        self._entries.append(e)
        self._cur = e
        self._order = 0
        if len(self._entries) >= _RING_PRUNE:
            self._prune()

    def on_fired(self) -> None:
        self._cur.cb_end = len(self._cur.items)

    def on_schedule(self, timer, delay: float) -> None:
        o = self._order
        self._order = o + 1
        timer.cap = (self._abs, delay, o)
        self._cur.items.append(("s", delay, o))

    def on_record(self, kind: str, fields: Dict[str, Any]) -> None:
        # Keep the caller's kwargs order: re-emitted records must serialize
        # byte-identically to the live hook call (dict order is part of the
        # JSON trace), and the emitting code path is deterministic anyway.
        self._cur.items.append(("r", kind, tuple(fields.items())))

    def effect(self, key: tuple, fn: Callable[[], None],
               freshen: bool = False) -> None:
        """Register one payload effect (a replay-runnable closure)."""
        self._cur.items.append(("e", key, fn, freshen))

    def on_reserve(self, transfer) -> None:
        """Link congestion marker: queued transfers veto nearby replay."""
        if transfer.start != self.engine._now:
            self._congestion = self._abs

    # ------------------------------------------------------------------ #

    def region(self, name: str, *, parity: int = 1,
               min_period: int = 1) -> CaptureRegion:
        """Create-once lookup of the named region."""
        reg = self.regions.get(name)
        if reg is None:
            reg = self.regions[name] = CaptureRegion(
                self, name, parity, min_period)
        return reg

    def disable(self, reason: str) -> None:
        """Stop capturing (revocation, etc.); recording never resumes."""
        if self.disabled is None:
            self.disabled = reason
            self.engine.capture = None  # detach every hook

    # ------------------------------------------------------------------ #

    def _bail(self, reason: str) -> bool:
        self.bailouts[reason] += 1
        return False

    def _bail_int(self, reason: str) -> int:
        self.bailouts[reason] += 1
        return 0

    def _update_keep(self) -> None:
        keeps = [r.keep for r in self.regions.values() if r.keep is not None]
        self._keep = min(keeps) if keeps else None

    def _prune(self) -> None:
        floor = self._keep if self._keep is not None else self._abs - _RING_SLACK
        drop = floor - self._base
        if drop > 0:
            del self._entries[:drop]
            self._base = floor

    # ------------------------------------------------------------------ #

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "mode": "regions",
            "enabled": self.disabled is None,
            "disabled": self.disabled,
            "replays": self.replays,
            "device_replays": self.device_replays,
            "events_replayed": self.events_replayed,
            "iterations_skipped": self.iterations_skipped,
            "replay_host_seconds": self.replay_host_seconds,
            "regions": sorted(self.regions),
            "device_mark_regions": sorted(
                k for k, r in self.regions.items() if r.device_mode),
            "bailouts": dict(sorted(self.bailouts.items())),
        }
