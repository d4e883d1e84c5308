"""GPUCCL communicators: stream-ordered two-sided P2P with group fusion.

Semantics follow NCCL/RCCL:

- every operation is enqueued on a GPU stream and runs as a kernel; the
  host never blocks (synchronize the stream to await results);
- send and recv are matched per ordered (src, dst) pair, FIFO, no tags;
- a send (or recv) op occupies its stream until the peer's matching op is
  also running — so un-grouped bidirectional exchanges deadlock, exactly
  like NCCL without ``ncclGroupStart/End``;
- grouping fuses many P2P ops into a single kernel launch, paying the
  launch overhead once plus a small per-op cost.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...coll import GpucclModel, Topology, model_for
from ...errors import GpucclError
from ...gpu.stream import ExternalOp, Stream
from ...launcher import RankContext
from ...obs import SeriesBy, size_class
from ...sim import current_engine
from ..common import BufferLike, DataPlane, InFlight, storage
from ..rendezvous import RendezvousBoard

__all__ = ["GpucclComm", "GpucclUniqueId", "get_unique_id", "group_start", "group_end"]


class GpucclUniqueId:
    """Opaque bootstrap token (ncclUniqueId): create once, share via MPI."""

    _counter = 0

    def __init__(self) -> None:
        GpucclUniqueId._counter += 1
        self.value = GpucclUniqueId._counter

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GpucclUniqueId {self.value}>"


def get_unique_id() -> GpucclUniqueId:
    """ncclGetUniqueId: called by one rank, broadcast out-of-band."""
    return GpucclUniqueId()


# --------------------------------------------------------------------- #
# P2P matching.
# --------------------------------------------------------------------- #


class _Pair:
    """What is fixed for one ordered (src, dst) pair of communicator ranks,
    made on the pair's first op: the path between their GPUs, the pair's
    FIFO match queues, its byte series and message series per message
    size, and the labels its payloads carry to the sanitizer and capture."""

    __slots__ = ("src", "dst", "path", "sends", "recvs", "messages", "bytes",
                 "key", "send_note", "recv_note")

    def __init__(self, shared: "_CommShared", src: int, dst: int):
        self.src, self.dst = src, dst
        self.path = shared.cluster.path(shared.gpu_ids[src], shared.gpu_ids[dst])
        self.sends: Deque["_P2PEntry"] = deque()
        self.recvs: Deque["_P2PEntry"] = deque()
        self.messages: Dict[int, object] = {}  # nbytes -> series
        self.bytes = shared._bytes[src]
        self.key = ("c", src, dst)
        self.send_note = f"ccl-send->{dst}"
        self.recv_note = f"ccl-recv<-{src}"


class _P2PEntry:
    __slots__ = ("kind", "buf", "arr", "count", "nbytes", "pair", "parent", "_san_clock")

    def __init__(self, kind: str, buf: BufferLike, count: int, pair: _Pair):
        self.kind = kind
        self.buf = buf
        self.arr = arr = storage(buf, count)
        self.count = count
        self.nbytes = int(count * arr.dtype.itemsize)
        self.pair = pair
        self.parent: Optional["_FusedOp"] = None


class _FusedOp(ExternalOp):
    """One communication kernel carrying one or more P2P operations."""

    def __init__(self, comm: "GpucclComm", stream: Stream, entries: List[_P2PEntry]):
        name = f"gpuccl-p2p[r{comm.rank} x{len(entries)}]"
        super().__init__(comm.engine, name, on_start=None)
        self.comm = comm
        self.entries = entries
        self._remaining = len(entries)

    def start(self) -> None:
        self.started = True
        profile = self.comm.profile
        self.comm._group_size.observe(len(self.entries))
        delay = profile.comm_launch_overhead + profile.per_op_overhead * len(self.entries)

        def register() -> None:
            # The entries change hands: from here the match queues own
            # them and they name this op, not the other way round.
            shared = self.comm.shared
            entries, self.entries = self.entries, ()
            for entry in entries:
                entry.parent = self
                shared.register(entry)

        self.engine.schedule(delay, register)

    def entry_done(self) -> None:
        san = self.engine.sanitizer
        if san is not None:
            # Entries deliver in independent callbacks; the fused op's
            # completion must be ordered after every entry's payload
            # movement, not just the one that happened to finish last.
            san.release(self)
        self._remaining -= 1
        if self._remaining == 0:
            if san is not None:
                san.acquire(self)
            self.finish()


class _CommShared:
    """State shared by all ranks of one communicator (the 'NCCL comm')."""

    def __init__(self, engine, cluster, profile, nranks: int):
        self.engine = engine
        self.cluster = cluster
        self.profile = profile
        self.nranks = nranks
        self.gpu_ids: Dict[int, int] = {}
        self.global_ranks: Dict[int, int] = {}
        # First asynchronous error observed on this communicator (shared by
        # all ranks, as in NCCL where the comm itself goes into error state).
        self.error: Optional[GpucclError] = None
        self.board = RendezvousBoard(engine)
        self.plane = DataPlane(engine, "gpuccl")
        self._pairs: Dict[Tuple[int, int], _Pair] = {}
        self.coll_slots: Dict[int, object] = {}
        self._model: Optional[GpucclModel] = None
        metrics = engine.metrics
        self._messages = SeriesBy(metrics.bind_counter, "gpuccl_messages_total",
                                   "size", "rank")
        self._bytes = SeriesBy(metrics.bind_counter, "gpuccl_bytes_total", "rank")

    @property
    def model(self) -> GpucclModel:
        """Timing model of this communicator, on the Topology that owns
        its generated schedules (``model.topo``; see repro.coll.cost)."""
        if self._model is None:
            gpus = [self.gpu_ids[r] for r in range(self.nranks)]
            self._model = model_for("gpuccl", Topology(self.cluster, gpus))
        return self._model

    def close(self) -> None:
        """Untie the finished job's communicator state (``Job.close``):
        the pair records with their unmatched entries, collective slots, the
        bootstrap rendezvous and the timing model's topology."""
        for pair in self._pairs.values():  # an unmatched entry names its pair
            pair.sends.clear()
            pair.recvs.clear()
        self._pairs.clear()
        self.coll_slots.clear()
        self.board.close()
        if self._model is not None:
            self._model.topo.close()

    def pair(self, src: int, dst: int) -> _Pair:
        """The record of ranks ``src`` -> ``dst``."""
        pair = self._pairs.get((src, dst))
        if pair is None:
            pair = self._pairs[src, dst] = _Pair(self, src, dst)
        return pair

    def register(self, entry: _P2PEntry) -> None:
        san = self.engine.sanitizer
        if san is not None:
            # register() runs in the entry's stream-kernel chain; the match
            # in _fire must be ordered after it (see the acquires there).
            san.release(entry)
        pair = entry.pair
        sends, recvs = pair.sends, pair.recvs
        (sends if entry.kind == "send" else recvs).append(entry)
        while sends and recvs:
            self._fire(pair, sends.popleft(), recvs.popleft())

    def _fire(self, pair: _Pair, send: _P2PEntry, recv: _P2PEntry) -> None:
        if recv.count < send.count:
            raise GpucclError(
                f"gpuccl p2p size mismatch: send {send.count} > recv {recv.count} "
                f"({pair.src}->{pair.dst})"
            )
        engine = self.engine
        nbytes = send.nbytes
        requested = engine.now + self.profile.protocol_overhead
        flight = InFlight(self.plane)
        transfer = flight.wire(pair.path, nbytes, requested)
        if engine.metrics.enabled:
            messages = pair.messages.get(nbytes)
            if messages is None:
                messages = pair.messages[nbytes] = self._messages[size_class(nbytes), pair.src]
            messages.inc()
            pair.bytes.inc(nbytes)
        san = engine.sanitizer
        if san is not None:
            # The match runs in whichever side registered last; order it
            # after BOTH sides so the payload read/write inherit each
            # stream's happens-before edges.
            san.acquire(send)
            san.acquire(recv)
        flight.snapshot(send.buf, send.arr, send.count, key=pair.key, note=pair.send_note)

        def deliver() -> None:
            if flight.dropped():
                # Fenced by a revoke while on the wire: the payload is
                # discarded and the op left unfinished — its waiters have
                # already unwound through the recovery path.
                return
            flight.land(recv.buf, recv.arr, note=pair.recv_note)
            send.parent.entry_done()
            recv.parent.entry_done()

        engine.schedule(max(0.0, transfer.delivered - engine.now), deliver)


# --------------------------------------------------------------------- #
# Group semantics (thread-local in NCCL; per simulated task here).
# --------------------------------------------------------------------- #


class _Group:
    __slots__ = ("depth", "pending")

    def __init__(self) -> None:
        self.depth = 1
        self.pending: List[Tuple["GpucclComm", Stream, _P2PEntry]] = []


_active_groups: Dict[object, _Group] = {}


def _current_task():
    return current_engine().current_task


def group_start() -> None:
    """ncclGroupStart: begin aggregating P2P calls (nestable)."""
    task = _current_task()
    group = _active_groups.get(task)
    if group is None:
        _active_groups[task] = _Group()
    else:
        group.depth += 1


def group_end() -> None:
    """ncclGroupEnd: launch the aggregated operations as fused kernels."""
    task = _current_task()
    group = _active_groups.get(task)
    if group is None:
        raise GpucclError("group_end without group_start")
    group.depth -= 1
    if group.depth > 0:
        return
    del _active_groups[task]
    # One fused kernel per (communicator, stream), preserving call order.
    buckets: Dict[Tuple[int, int], Tuple["GpucclComm", Stream, List[_P2PEntry]]] = {}
    for comm, stream, entry in group.pending:
        key = (id(comm.shared), id(stream))
        if key not in buckets:
            buckets[key] = (comm, stream, [])
        buckets[key][2].append(entry)
    for comm, stream, entries in buckets.values():
        stream.enqueue(_FusedOp(comm, stream, entries))


# --------------------------------------------------------------------- #


class GpucclComm:
    """One rank's handle on a GPUCCL communicator (ncclComm_t)."""

    def __init__(self, rank_ctx: RankContext, unique_id: GpucclUniqueId, nranks: int, rank: int):
        """ncclCommInitRank: collective across all ranks of the comm."""
        if not 0 <= rank < nranks:
            raise GpucclError(f"rank {rank} out of range [0,{nranks})")
        device = rank_ctx.device
        if device is None:
            raise GpucclError("gpuccl requires a selected GPU before comm init")
        self.rank_ctx = rank_ctx
        self.engine = rank_ctx.engine
        self.rank = rank
        self.size = nranks
        self.device = device
        self.profile = rank_ctx.cluster.machine.gpuccl
        self.shared: _CommShared = rank_ctx.job.shared_state(
            ("gpuccl_comm", unique_id.value),
            lambda: _CommShared(self.engine, rank_ctx.cluster, self.profile, nranks),
        )
        if self.shared.nranks != nranks:
            raise GpucclError("inconsistent nranks across comm_init_rank calls")
        self.shared.gpu_ids[rank] = device.gpu_id
        self.shared.global_ranks[rank] = rank_ctx.rank
        self._coll_seq = 0
        self._destroyed = False
        self._group_size = self.engine.metrics.bind_histogram(
            "gpuccl_group_size", rank=rank)
        # Bootstrap: all ranks must arrive before any communication.
        self.shared.board.gather("init", rank, nranks)
        self.engine.defer_busy(self.profile.bootstrap_overhead)

    # ------------------------------------------------------------------ #

    def _check(self, peer: int) -> None:
        if self.shared.error is not None:
            raise self.shared.error
        if self._destroyed:
            raise GpucclError("use of destroyed gpuccl communicator")
        if not 0 <= peer < self.size:
            raise GpucclError(f"peer {peer} out of range [0,{self.size})")

    def async_error_query(self) -> Optional[GpucclError]:
        """ncclCommGetAsyncError: poll for errors without blocking.

        Returns the communicator's error state (None = healthy). Under fault
        injection this is how surviving ranks detect a crashed peer: the
        first query after the crash latches a :class:`GpucclError` naming the
        unresponsive rank(s) into the shared comm state, and the caller is
        expected to :meth:`abort` rather than wait on operations that can
        never complete.
        """
        shared = self.shared
        if shared.error is not None:
            return shared.error
        injector = self.engine.fault_injector
        if injector is not None and injector.crashed_ranks:
            crashed = injector.crashed_among(shared.global_ranks.values())
            if crashed:
                shared.error = GpucclError(
                    f"gpuccl async error: remote rank(s) {crashed} unresponsive "
                    f"(detected at t={self.engine.now:.9g}s)"
                )
                injector.record("fault.gpuccl_error", rank=self.rank, crashed=crashed)
        return shared.error

    def abort(self, reason: str = "") -> None:
        """ncclCommAbort: tear the communicator down without waiting.

        Marks the comm destroyed and errored for every rank, records the
        abort on the fault log, then raises :class:`GpucclError` carrying
        the diagnostics (who aborted, why, and at what virtual time) so the
        caller unwinds instead of deadlocking on unmatched operations.
        """
        shared = self.shared
        self._destroyed = True
        cause = shared.error
        detail = reason or (str(cause) if cause is not None else "application abort")
        error = GpucclError(
            f"gpuccl comm aborted by rank {self.rank}/{self.size} "
            f"at t={self.engine.now:.9g}s: {detail}"
        )
        if shared.error is None:
            shared.error = error
        injector = self.engine.fault_injector
        if injector is not None:
            injector.record("fault.gpuccl_abort", rank=self.rank, reason=detail)
        raise error

    def _submit(self, entry: _P2PEntry, stream: Stream) -> None:
        group = _active_groups.get(self.engine.current_task)
        if group is not None:
            group.pending.append((self, stream, entry))
        else:
            stream.enqueue(_FusedOp(self, stream, [entry]))

    def send(self, buf: BufferLike, count: int, peer: int, stream: Stream) -> None:
        """ncclSend: stream-ordered; blocks the stream until matched."""
        self._check(peer)
        self._submit(_P2PEntry("send", buf, count, self.shared.pair(self.rank, peer)), stream)

    def recv(self, buf: BufferLike, count: int, peer: int, stream: Stream) -> None:
        """ncclRecv: stream-ordered; blocks the stream until matched."""
        self._check(peer)
        self._submit(_P2PEntry("recv", buf, count, self.shared.pair(peer, self.rank)), stream)

    # Collectives live in collectives.py; bound here for a flat API.
    from .collectives import (  # noqa: E402  (methods-by-import idiom)
        all_gather as all_gather,
        all_reduce as all_reduce,
        broadcast as broadcast,
        reduce as reduce,
        reduce_scatter as reduce_scatter,
    )

    # ------------------------------------------------------------------ #

    def split(self, color: int, key: int = 0) -> "GpucclComm":
        """ncclCommSplit: collective over every member of this comm."""
        self._coll_seq += 1
        slot = ("gpuccl_split", self._coll_seq)
        payloads = self.shared.board.gather(slot, self.rank, self.size, (color, key, self.rank))
        uid = self.shared.board.once(
            ("split_ids", self._coll_seq),
            lambda: {c: GpucclUniqueId() for c in sorted({p[0] for p in payloads.values()})},
        )
        group = sorted((p for p in payloads.values() if p[0] == color), key=lambda p: (p[1], p[2]))
        new_rank = [g for _, _, g in group].index(self.rank)
        return GpucclComm(self.rank_ctx, uid[color], len(group), new_rank)

    @property
    def destroyed(self) -> bool:
        """True once the communicator was destroyed or aborted."""
        return self._destroyed

    def destroy(self) -> None:
        """ncclCommDestroy."""
        if self._destroyed:
            raise GpucclError("gpuccl communicator destroyed twice")
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GpucclComm rank={self.rank}/{self.size} gpu={self.device.gpu_id}>"
