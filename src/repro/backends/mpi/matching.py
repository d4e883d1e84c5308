"""Two-sided message matching with eager and rendezvous protocols.

This mirrors how real MPI implementations move GPU buffers:

- **eager** (size <= threshold): the payload is injected into the network at
  send time, regardless of whether a receive is posted. The sender's buffer
  is reusable once the message is on the wire (``inject_done``); the
  receiver completes at delivery, or — for *unexpected* messages that
  arrived before the receive was posted — after an extra bounce-buffer copy.
- **rendezvous** (size > threshold): the sender announces (RTS) and the
  transfer only starts after the matching receive is posted (CTS), costing
  an extra handshake of ``rendezvous_rtt_factor x path latency``. Data then
  moves GPU-to-GPU directly (GPUDirect/ROCnRDMA path).

Matching follows MPI semantics: per (source, tag) FIFO, wildcard source/tag
allowed, messages between a pair never overtake each other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...errors import MpiError, MpiTimeoutError
from ...hardware.profiles import MpiProfile
from ...obs import SeriesBy, size_class
from ..common import BufferLike, DataPlane, InFlight, storage
from .request import Request

__all__ = ["ANY_SOURCE", "ANY_TAG", "MessageEngine"]

# Wildcards (None keeps them out of the integer tag space, where negative
# tags are reserved for collectives).
ANY_SOURCE = None
ANY_TAG = None


class _Endpoint:
    """One receiver's match queues on one communicator — pending sends
    (the unexpected-message queue) and posted receives, each in arrival
    order — and the depth gauge of each."""

    __slots__ = ("sends", "recvs", "unexpected", "posted")

    def __init__(self, depth: SeriesBy, dst: int):
        self.sends: List["_SendRec"] = []
        self.recvs: List["_RecvRec"] = []
        self.unexpected = depth["unexpected", dst]
        self.posted = depth["posted", dst]


class _Pair:
    """What is fixed for one (communicator, src, dst) pair of comm-local
    ranks, made on the pair's first send: the path between the two ranks'
    GPUs, their world ranks, the receiver's match queues, and the message
    and byte series of each message size seen. It lives as long as the
    matcher, unless either rank selects another GPU
    (:meth:`MessageEngine.forget_pairs`)."""

    __slots__ = ("path", "src_g", "dst_g", "endpoint", "sized")

    def __init__(self, path, src_g: int, dst_g: int, endpoint: _Endpoint):
        self.path = path
        self.src_g, self.dst_g = src_g, dst_g
        self.endpoint = endpoint
        self.sized: Dict[int, tuple] = {}  # nbytes -> (messages, bytes) series


class _RecvRec(Request):
    """A posted receive: the receiver's request, filled by the send it
    matches."""

    __slots__ = ("src", "tag", "count", "buf", "arr")

    def __init__(self, engine, src: Optional[int], dst: int, tag: Optional[int], count: int,
                 buf: BufferLike, arr):
        super().__init__(engine, f"recv[{src}->{dst} tag={tag}]")
        self.src, self.tag, self.count = src, tag, count
        self.buf, self.arr = buf, arr


class _SendRec(Request):
    """One message from its post to its landing, and the sender's request.

    Posted, it waits in its receiver's unexpected queue unless a receive
    already does; matched, it holds that receive (``recv``) and goes on the
    wire — one attempt, unless a fault plan drops some — then lands.

    Each attempt asks the fault injector — when one that targets MPI
    messages is installed — for its fate; with none the verdict is simply
    healthy. A dropped (or checksum-corrupted) attempt is retransmitted
    after the plan's :class:`~repro.resilience.RetryPolicy` backoff
    (``base * multiplier**attempt``, plus seeded jitter when enabled);
    exhausting the retry budget — or the policy's wall timeout — completes
    the receive request (and, for rendezvous, the send request too) with
    :class:`MpiTimeoutError`. A message no fault matches takes exactly the
    timing of a run without a plan.
    """

    __slots__ = ("src", "dst", "tag", "count", "nbytes", "kind", "profile", "buf", "arr",
                 "pair", "arrival_time", "flight", "recv", "first_try")

    def __init__(self, engine, profile: MpiProfile, src: int, dst: int, tag: int, count: int,
                 buf: BufferLike, arr):
        super().__init__(engine, f"send[{src}->{dst} tag={tag}]")
        self.src, self.dst, self.tag, self.count = src, dst, tag, count
        self.nbytes = nbytes = int(count * arr.dtype.itemsize)
        self.kind = "eager" if nbytes <= profile.eager_threshold else "rdv"
        self.profile = profile
        # The live send buffer (rendezvous reads it at transfer time) and
        # its storage.
        self.buf, self.arr = buf, arr
        self.pair: Optional[_Pair] = None  # resolved at registration
        self.arrival_time = 0.0
        # The payload: an eager one is snapshotted and on the wire from
        # registration, a rendezvous one is issued by the match.
        self.flight: Optional[InFlight] = None
        self.recv: Optional[_RecvRec] = None  # the matched receive
        self.first_try: Optional[float] = None  # time of the first faultable attempt

    def attempt(self, k: int) -> None:
        engine, flight = self.engine, self.flight
        if k and flight.fenced:
            return  # revoked mid-retry: stop retransmitting
        now = engine.now
        injector = engine.fault_injector
        if (injector is not None and injector.has_message_faults
                and self._faulted(injector, k, now)):
            return
        eager = self.kind == "eager"
        if eager and k == 0:
            # An unexpected message is already here: it pays the
            # bounce-buffer copy.
            engine.schedule(self.arrival_time - now if self.arrival_time > now
                            else self.nbytes / self.profile.eager_copy_bandwidth,
                            self.deliver)
        else:
            # The rendezvous transfer (or any retransmission) reserves the
            # wire now; rendezvous data moves straight from the live send
            # buffer.
            if not eager:
                flight.snapshot(self.buf, self.arr, self.count,
                                key=("r", self.src, self.dst, self.tag), note=self.name[4:])
            transfer = flight.wire(self.pair.path, self.nbytes, now)
            if not eager:
                engine.schedule(max(0.0, transfer.inject_done - now), self.complete)
            engine.schedule(max(0.0, transfer.delivered - now), self.deliver)
        if k > 0:
            injector.record("fault.mpi_recovered", src=self.pair.src_g, dst=self.pair.dst_g,
                            tag=self.tag, attempt=k)

    def _faulted(self, injector, k: int, now: float) -> bool:
        """Ask the injector for attempt ``k``'s fate; on a fault, schedule
        the retransmission (or give up) and return True."""
        src_g, dst_g, tag = self.pair.src_g, self.pair.dst_g, self.tag
        if self.first_try is None:
            self.first_try = now
        verdict = injector.message_verdict(src_g, dst_g, tag, now)
        if verdict is None:
            return False
        injector.record(f"fault.mpi_{verdict}", src=src_g, dst=dst_g,
                        tag=tag, attempt=k, nbytes=self.nbytes)
        policy = injector.plan.retry_policy()
        if policy.exhausted(k, now - self.first_try):
            error = MpiTimeoutError(
                f"transfer {src_g}->{dst_g} tag={tag} ({self.nbytes} B) gave up "
                f"after {k} retransmissions at t={now:.9g}s"
            )
            injector.record("fault.mpi_giveup", src=src_g, dst=dst_g, tag=tag,
                            attempts=k)
            self.recv.fail(error)
            if self.kind == "rdv":
                self.fail(error)
        else:
            self.engine.schedule(policy.backoff(k, injector.rng),
                                 lambda: self.attempt(k + 1))
        return True

    def deliver(self) -> None:
        flight, recv = self.flight, self.recv
        # Landed or fenced, the message is done with its payload and its
        # receive: a request its caller keeps holds neither.
        self.flight = self.recv = None
        if flight.dropped():
            # Fenced by a revoke while on the wire: the payload never lands
            # and the recv stays pending — its waiter already unwound
            # through the recovery path.
            return
        note = (f"recv[{self.src}->{self.dst} tag={self.tag}]"
                if self.engine.sanitizer is not None else None)
        flight.land(recv.buf, recv.arr, note=note)
        recv.complete()


class MessageEngine:
    """Shared matcher for one MPI 'world' (all communicators).

    A message is two records, each the request its poster waits on — a
    :class:`_SendRec` and the :class:`_RecvRec` it matches — and the
    :class:`InFlight` of its payload. Matching state lives in two kinds of
    record, each made on first use: an :class:`_Endpoint` per
    (communicator, receiver) — the match queues, shared by every sender,
    as a wildcard receive must see all of them in arrival order — and a
    :class:`_Pair` per (communicator, sender, receiver), which fixes what
    every message of the pair would otherwise re-derive. Ranks are
    comm-local throughout, as in the metric labels.
    """

    def __init__(self, engine, cluster, gpu_of):
        self.engine = engine
        self.cluster = cluster
        self._gpu_of = gpu_of  # callable: global rank -> gpu id
        self.plane = DataPlane(engine, "mpi")
        self._endpoints: Dict[Tuple[int, int], _Endpoint] = {}  # (comm_id, dst)
        self._pairs: Dict[Tuple[int, int, int], _Pair] = {}  # (comm_id, src, dst)
        metrics = engine.metrics
        self._messages = SeriesBy(metrics.bind_counter, "mpi_messages_total",
                                   "protocol", "size", "rank")
        self._bytes = SeriesBy(metrics.bind_counter, "mpi_bytes_total",
                                "protocol", "rank")
        self._depth = SeriesBy(metrics.bind_gauge, "mpi_match_queue_depth",
                                "queue", "rank")
        engine.time_shift_hooks.append(self._shift_time)

    def _shift_time(self, span: float) -> None:
        """Translate absolute anchors after a replay takeover.

        A queued eager send's ``arrival_time`` is an absolute virtual
        time; structural identity means the live run would have
        re-created it exactly ``span`` later, so the takeover shifts it
        instead of re-simulating.  Without this a post-replay receive
        would see a steady-state in-flight message as "already here" and
        skip the wire delay.  (Link ``busy_until`` anchors are shifted
        by the launcher's cluster-wide hook, not per-world here.)
        """
        for endpoint in self._endpoints.values():
            for send in endpoint.sends:
                send.arrival_time += span

    # ------------------------------------------------------------------ #

    def endpoint(self, comm_id: int, dst: int) -> _Endpoint:
        """The match queues of comm-local rank ``dst`` on ``comm_id``."""
        key = (comm_id, dst)
        endpoint = self._endpoints.get(key)
        if endpoint is None:
            endpoint = self._endpoints[key] = _Endpoint(self._depth, dst)
        return endpoint

    def pair(self, comm, src: int, dst: int) -> _Pair:
        """The record of two comm-local ranks of ``comm``."""
        pair = self._pairs.get((comm.comm_id, src, dst))
        if pair is None:
            src_g, dst_g = comm.members[src], comm.members[dst]
            pair = self._pairs[comm.comm_id, src, dst] = _Pair(
                self.cluster.path(self._gpu_of(src_g), self._gpu_of(dst_g)), src_g, dst_g,
                self.endpoint(comm.comm_id, dst))
        return pair

    def close(self) -> None:
        """Drop every record (``MpiWorld.close``): an unmatched message
        names its pair, whose endpoint queues the message."""
        for endpoint in self._endpoints.values():
            endpoint.sends.clear()
            endpoint.recvs.clear()
        self._endpoints.clear()
        self._pairs.clear()

    def forget_pairs(self) -> None:
        """Drop every pair record: a rank now drives another GPU, so the
        paths they fixed may be wrong (queues and series stay)."""
        self._pairs.clear()

    # ------------------------------------------------------------------ #
    # Posting.
    # ------------------------------------------------------------------ #

    def post_send(
        self,
        comm,
        profile: MpiProfile,
        buf: BufferLike,
        count: int,
        dst: int,
        tag: int,
        overhead: float = 0.0,
    ) -> Request:
        """Register a send; returns its record, the sender-completion
        request.

        ``overhead`` is the host-call cost a nonblocking caller has not
        slept: it is charged here, and the registration (snapshot, wire
        reservation, trace, match scan) runs when the caller's busy time
        has elapsed (``Engine.after_busy``) — the exact time at which a
        caller that slept the overhead would have reached this point —
        while the argument validation still happens (and raises) in the
        caller's frame. The caller must not modify ``buf`` before the
        request completes, which MPI already requires of nonblocking sends.
        """
        if not 0 <= dst < comm.size:
            raise MpiError(f"send: destination {dst} out of range [0,{comm.size})")
        src = comm.rank
        engine = self.engine
        send = _SendRec(engine, profile, src, dst, tag, count, buf, storage(buf, count))

        def register() -> None:
            # Resolved here, not in the caller's frame: a task in debt may
            # select another GPU before its post registers.
            pair = send.pair = (self._pairs.get((comm.comm_id, src, dst))
                                or self.pair(comm, src, dst))
            san = engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires (_fire
                # acquires both records).
                san.release(send)
            nbytes, kind = send.nbytes, send.kind
            if kind == "eager":
                flight = send.flight = InFlight(self.plane).snapshot(
                    buf, send.arr, count, key=("m", src, dst, tag), note=send.name[4:])
                now = engine.now
                transfer = flight.wire(pair.path, nbytes, now)
                send.arrival_time = transfer.delivered
                # The sender's buffer is free once the payload is on the wire.
                engine.schedule(max(0.0, transfer.inject_done - now), send.complete)
            metrics = engine.metrics
            if metrics.enabled:
                series = pair.sized.get(nbytes)
                if series is None:
                    series = pair.sized[nbytes] = (
                        self._messages[kind, size_class(nbytes), src],
                        self._bytes[kind, src])
                series[0].inc()
                series[1].inc(nbytes)
            if engine.trace_hook is not None:
                engine.trace_fields("mpi.send", {
                    "src": src, "dst": dst, "tag": tag, "nbytes": nbytes,
                    "protocol": kind, "comm": comm.comm_id})
            endpoint = pair.endpoint
            recvs = endpoint.recvs
            # Incremental matching: no pending (send, recv) pair matched
            # before this post, so only the new send can complete a pair —
            # scan the posted receives once, in FIFO order (MPI matching
            # order).
            for i, recv in enumerate(recvs):
                if ((recv.src is ANY_SOURCE or recv.src == src)
                        and (recv.tag is ANY_TAG or recv.tag == tag)):
                    del recvs[i]
                    self._fire(send, recv)
                    return
            sends = endpoint.sends
            sends.append(send)
            # Depth of the unexpected-message queue at this receiver; the
            # high-water mark surfaces receives posted chronically late.
            if metrics.enabled:
                endpoint.unexpected.set(len(sends))

        engine.after_busy(register, overhead)
        return send

    def post_recv(
        self,
        comm,
        profile: MpiProfile,
        buf: BufferLike,
        count: int,
        src: Optional[int],
        tag: Optional[int],
        overhead: float = 0.0,
    ) -> Request:
        """Register a receive; returns its record, the receive-completion
        request (``overhead`` as in :meth:`post_send`)."""
        if src is not ANY_SOURCE and not 0 <= src < comm.size:
            raise MpiError(f"recv: source {src} out of range [0,{comm.size})")
        dst = comm.rank
        engine = self.engine
        recv = _RecvRec(engine, src, dst, tag, count, buf, storage(buf, count))

        def register() -> None:
            san = engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires; the recv
                # post carries the receiver's prior accesses to the buffer
                # (e.g. a kernel read completed before re-posting).
                san.release(recv)
            if engine.trace_hook is not None:
                engine.trace_fields("mpi.recv", {
                    "src": src, "dst": dst, "tag": tag, "comm": comm.comm_id})
            endpoint = (self._endpoints.get((comm.comm_id, dst))
                        or self.endpoint(comm.comm_id, dst))
            sends = endpoint.sends
            # Incremental matching (see post_send): only the new receive can
            # complete a pair, against the earliest matching pending send.
            for i, send in enumerate(sends):
                if ((src is ANY_SOURCE or src == send.src)
                        and (tag is ANY_TAG or tag == send.tag)):
                    del sends[i]
                    self._fire(send, recv)
                    return
            recvs = endpoint.recvs
            recvs.append(recv)
            if engine.metrics.enabled:
                endpoint.posted.set(len(recvs))

        engine.after_busy(register, overhead)
        return recv

    # ------------------------------------------------------------------ #
    # Matching.
    # ------------------------------------------------------------------ #

    def _fire(self, send: _SendRec, recv: _RecvRec) -> None:
        engine = self.engine
        san = engine.sanitizer
        if san is not None:
            # The match runs in whichever side posted last; order the
            # delivery after BOTH posts so it inherits, in particular, the
            # receiver's accesses that completed before the irecv.
            san.acquire(send)
            san.acquire(recv)
        if recv.count < send.count:
            # Reported on the receive side (MPI_ERR_TRUNC); the sender is
            # unaffected, matching real MPI behaviour.
            recv.fail(MpiError(
                f"message truncation: recv count {recv.count} < send count "
                f"{send.count} (src={send.src}, dst={send.dst}, tag={send.tag})"))
            send.complete()
            return
        send.recv = recv
        if send.kind == "eager":
            send.attempt(0)
        else:
            # Issued here, so a revoke between the post and the match does
            # not fence it.
            send.flight = InFlight(self.plane)
            engine.schedule(send.profile.rendezvous_rtt_factor * send.pair.path.latency,
                            lambda: send.attempt(0))
