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


class _SendRec:
    __slots__ = (
        "src", "tag", "count", "nbytes", "kind", "pair", "buf", "arr", "arrival_time",
        "flight", "request", "matched",
    )

    def __init__(self, src: int, tag: int, count: int, nbytes: int, kind: str,
                 pair: _Pair, buf: BufferLike, arr):
        self.src = src
        self.tag = tag
        self.count = count
        self.nbytes = nbytes
        self.kind = kind  # "eager" | "rdv"
        self.pair = pair
        self.buf = buf  # live send buffer (rendezvous reads it at transfer time)
        self.arr = arr  # its storage
        self.arrival_time: float = 0.0
        self.flight: Optional[InFlight] = None  # eager payload, already on the wire
        self.request: Optional[Request] = None
        self.matched = False


class _RecvRec:
    __slots__ = ("src", "tag", "count", "buf", "arr", "request", "matched")

    def __init__(self, src: Optional[int], tag: Optional[int], count: int, buf: BufferLike,
                 arr, request: Request):
        self.src = src
        self.tag = tag
        self.count = count
        self.buf = buf
        self.arr = arr
        self.request = request
        self.matched = False


class _Delivery:
    """A matched pair on its way to the receive buffer: wire attempts —
    one, unless a fault plan drops some — then the landing.

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

    __slots__ = ("engine", "profile", "send", "recv", "dst", "flight",
                 "injector", "src_g", "dst_g", "first_try")

    def __init__(self, plane: DataPlane, profile: MpiProfile, send: _SendRec,
                 recv: _RecvRec, dst: int):
        self.engine = engine = plane.engine
        self.profile = profile
        self.send = send
        self.recv = recv
        self.dst = dst
        # Eager payloads were snapshotted and put on the wire at post time;
        # a rendezvous payload is issued by this match.
        self.flight = send.flight or InFlight(plane)
        injector = engine.fault_injector
        if injector is not None and injector.has_message_faults:
            self.injector = injector
            self.src_g = send.pair.src_g
            self.dst_g = send.pair.dst_g
        else:
            self.injector = None
        self.first_try: Optional[float] = None  # time of the first wire attempt

    def attempt(self, k: int) -> None:
        engine, send, flight = self.engine, self.send, self.flight
        if k and flight.fenced:
            return  # revoked mid-retry: stop retransmitting
        now = engine.now
        injector = self.injector
        if injector is not None and self._faulted(k, now):
            return
        eager = send.kind == "eager"
        if eager and k == 0:
            if send.arrival_time > now:
                engine.schedule(send.arrival_time - now, self.deliver)
            else:
                # Unexpected message: already here, pay the bounce-buffer
                # copy.
                engine.schedule(send.nbytes / self.profile.eager_copy_bandwidth,
                                self.deliver)
        else:
            # The rendezvous transfer (or any retransmission) reserves the
            # wire now; rendezvous data moves straight from the live send
            # buffer.
            if not eager:
                flight.snapshot(send.buf, send.arr, send.count,
                                key=("r", send.src, self.dst, send.tag),
                                note=f"send[{send.src}->{self.dst} tag={send.tag}]")
            transfer = flight.wire(send.pair.path, send.nbytes, now)
            if not eager and not send.request.done:
                engine.schedule(max(0.0, transfer.inject_done - now),
                                send.request.complete)
            engine.schedule(max(0.0, transfer.delivered - now), self.deliver)
        if k > 0:
            injector.record("fault.mpi_recovered", src=self.src_g, dst=self.dst_g,
                            tag=send.tag, attempt=k)

    def _faulted(self, k: int, now: float) -> bool:
        """Ask the injector for attempt ``k``'s fate; on a fault, schedule
        the retransmission (or give up) and return True."""
        injector, send = self.injector, self.send
        src_g, dst_g = self.src_g, self.dst_g
        if self.first_try is None:
            self.first_try = now
        verdict = injector.message_verdict(src_g, dst_g, send.tag, now)
        if verdict is None:
            return False
        injector.record(f"fault.mpi_{verdict}", src=src_g, dst=dst_g,
                        tag=send.tag, attempt=k, nbytes=send.nbytes)
        policy = injector.plan.retry_policy()
        if policy.exhausted(k, now - self.first_try):
            error = MpiTimeoutError(
                f"transfer {src_g}->{dst_g} tag={send.tag} ({send.nbytes} B) gave up "
                f"after {k} retransmissions at t={now:.9g}s"
            )
            injector.record("fault.mpi_giveup", src=src_g, dst=dst_g, tag=send.tag,
                            attempts=k)
            self.recv.request.fail(error)
            if send.kind == "rdv":
                send.request.fail(error)
        else:
            self.engine.schedule(policy.backoff(k, injector.rng),
                                 lambda: self.attempt(k + 1))
        return True

    def deliver(self) -> None:
        if self.flight.dropped():
            # Fenced by a revoke while on the wire: the payload never lands
            # and the recv stays pending — its waiter already unwound
            # through the recovery path.
            return
        send, recv = self.send, self.recv
        self.flight.land(recv.buf, recv.arr,
                         note=f"recv[{send.src}->{self.dst} tag={send.tag}]")
        recv.request.complete()


class MessageEngine:
    """Shared matcher for one MPI 'world' (all communicators).

    Matching state lives in two kinds of record, each made on first use:
    an :class:`_Endpoint` per (communicator, receiver) — the match queues,
    shared by every sender, as a wildcard receive must see all of them in
    arrival order — and a :class:`_Pair` per (communicator, sender,
    receiver), which fixes what every message of the pair would otherwise
    re-derive. Ranks are comm-local throughout, as in the metric labels.
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
                if not send.matched:
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
        """Register a send; returns the sender-completion request.

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
        arr = storage(buf, count)
        nbytes = int(count * arr.dtype.itemsize)
        label = f"send[{src}->{dst} tag={tag}]"
        engine = self.engine
        request = Request(engine, label)

        def register() -> None:
            pair = self._pairs.get((comm.comm_id, src, dst)) or self.pair(comm, src, dst)
            san = engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires (_fire
                # acquires both records).
                san.release(request)
            if nbytes <= profile.eager_threshold:
                rec = _SendRec(src, tag, count, nbytes, "eager", pair, buf, arr)
                rec.flight = InFlight(self.plane).snapshot(
                    buf, arr, count, key=("m", src, dst, tag), note=label)
                now = engine.now
                transfer = rec.flight.wire(pair.path, nbytes, now)
                rec.arrival_time = transfer.delivered
                # The sender's buffer is free once the payload is on the wire.
                engine.schedule(max(0.0, transfer.inject_done - now), request.complete)
            else:
                rec = _SendRec(src, tag, count, nbytes, "rdv", pair, buf, arr)
            rec.request = request
            metrics = engine.metrics
            if metrics.enabled:
                series = pair.sized.get(nbytes)
                if series is None:
                    series = pair.sized[nbytes] = (
                        self._messages[rec.kind, size_class(nbytes), src],
                        self._bytes[rec.kind, src])
                series[0].inc()
                series[1].inc(nbytes)
            if engine.trace_hook is not None:
                engine.trace_fields("mpi.send", {
                    "src": src, "dst": dst, "tag": tag, "nbytes": nbytes,
                    "protocol": rec.kind, "comm": comm.comm_id})
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
                    self._fire(profile, rec, recv, dst)
                    return
            sends = endpoint.sends
            sends.append(rec)
            # Depth of the unexpected-message queue at this receiver; the
            # high-water mark surfaces receives posted chronically late.
            if metrics.enabled:
                endpoint.unexpected.set(len(sends))

        engine.after_busy(register, overhead)
        return request

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
        """Register a receive; returns the receive-completion request
        (``overhead`` as in :meth:`post_send`)."""
        if src is not ANY_SOURCE and not 0 <= src < comm.size:
            raise MpiError(f"recv: source {src} out of range [0,{comm.size})")
        dst = comm.rank
        arr = storage(buf, count)
        engine = self.engine
        request = Request(engine, f"recv[{src}->{dst} tag={tag}]")

        def register() -> None:
            rec = _RecvRec(src, tag, count, buf, arr, request)
            san = engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires; the recv
                # post carries the receiver's prior accesses to the buffer
                # (e.g. a kernel read completed before re-posting).
                san.release(request)
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
                    self._fire(profile, send, rec, dst)
                    return
            recvs = endpoint.recvs
            recvs.append(rec)
            if engine.metrics.enabled:
                endpoint.posted.set(len(recvs))

        engine.after_busy(register, overhead)
        return request

    # ------------------------------------------------------------------ #
    # Matching and completion.
    # ------------------------------------------------------------------ #

    def _fire(self, profile: MpiProfile, send: _SendRec, recv: _RecvRec, dst: int) -> None:
        engine = self.engine
        san = engine.sanitizer
        if san is not None:
            # The match runs in whichever side posted last; order the
            # delivery after BOTH posts so it inherits, in particular, the
            # receiver's accesses that completed before the irecv.
            san.acquire(send.request)
            san.acquire(recv.request)
        if recv.count < send.count:
            # Reported on the receive side (MPI_ERR_TRUNC); the sender is
            # unaffected, matching real MPI behaviour.
            recv.request.fail(
                MpiError(
                    f"message truncation: recv count {recv.count} < send count "
                    f"{send.count} (src={send.src}, dst={dst}, tag={send.tag})"
                )
            )
            send.request.complete()
            return
        delivery = _Delivery(self.plane, profile, send, recv, dst)
        if send.kind == "eager":
            delivery.attempt(0)
        else:
            engine.schedule(profile.rendezvous_rtt_factor * send.pair.path.latency,
                            lambda: delivery.attempt(0))

    # ------------------------------------------------------------------ #

    def pending_counts(self, comm_id: int, dst: int) -> Tuple[int, int]:
        """(pending sends, pending recvs) for diagnostics/tests."""
        endpoint = self.endpoint(comm_id, dst)
        return len(endpoint.sends), len(endpoint.recvs)
