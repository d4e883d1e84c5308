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
from ..common import BufferLike, InFlight, as_array
from .request import Request

__all__ = ["ANY_SOURCE", "ANY_TAG", "MessageEngine"]

# Wildcards (None keeps them out of the integer tag space, where negative
# tags are reserved for collectives).
ANY_SOURCE = None
ANY_TAG = None


class _SendRec:
    __slots__ = (
        "src", "tag", "count", "nbytes", "kind", "path", "buf", "arrival_time",
        "flight", "request", "matched",
    )

    def __init__(self, src: int, tag: int, count: int, nbytes: int, kind: str,
                 path, buf: BufferLike):
        self.src = src
        self.tag = tag
        self.count = count
        self.nbytes = nbytes
        self.kind = kind  # "eager" | "rdv"
        self.path = path
        self.buf = buf  # live send buffer (rendezvous reads it at transfer time)
        self.arrival_time: float = 0.0
        self.flight: Optional[InFlight] = None  # eager payload, already on the wire
        self.request: Optional[Request] = None
        self.matched = False


class _RecvRec:
    __slots__ = ("src", "tag", "count", "buf", "request", "matched")

    def __init__(self, src: Optional[int], tag: Optional[int], count: int, buf: BufferLike, request: Request):
        self.src = src
        self.tag = tag
        self.count = count
        self.buf = buf
        self.request = request
        self.matched = False


def _tags_match(recv: _RecvRec, send: _SendRec) -> bool:
    if recv.src is not ANY_SOURCE and recv.src != send.src:
        return False
    if recv.tag is not ANY_TAG and recv.tag != send.tag:
        return False
    return True


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

    def __init__(self, engine, comm, profile: MpiProfile, send: _SendRec,
                 recv: _RecvRec, dst: int):
        self.engine = engine
        self.profile = profile
        self.send = send
        self.recv = recv
        self.dst = dst
        # Eager payloads were snapshotted and put on the wire at post time;
        # a rendezvous payload is issued by this match.
        self.flight = send.flight or InFlight(engine, "mpi")
        injector = engine.fault_injector
        if injector is not None and injector.has_message_faults:
            self.injector = injector
            self.src_g = comm.global_rank_of(send.src)
            self.dst_g = comm.global_rank_of(dst)
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
                flight.snapshot(send.buf, send.count,
                                key=("r", send.src, self.dst, send.tag),
                                note=f"send[{send.src}->{self.dst} tag={send.tag}]")
            transfer = flight.wire(send.path.reserve(now, send.nbytes))
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
        send = self.send
        self.flight.land(self.recv.buf,
                         note=f"recv[{send.src}->{self.dst} tag={send.tag}]")
        self.recv.request.complete()


class MessageEngine:
    """Shared matcher for one MPI 'world' (all communicators)."""

    def __init__(self, engine, cluster, gpu_of):
        self.engine = engine
        self.cluster = cluster
        self._gpu_of = gpu_of  # callable: global rank -> gpu id
        # (comm_id, dst_local) -> pending records, in arrival order.
        self._sends: Dict[Tuple[int, int], List[_SendRec]] = {}
        self._recvs: Dict[Tuple[int, int], List[_RecvRec]] = {}
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
        for pending in self._sends.values():
            for send in pending:
                if not send.matched:
                    send.arrival_time += span

    # ------------------------------------------------------------------ #

    def _queues(self, comm_id: int, dst: int) -> Tuple[List[_SendRec], List[_RecvRec]]:
        key = (comm_id, dst)
        return (self._sends.setdefault(key, []), self._recvs.setdefault(key, []))

    def path_between(self, comm, src_local: int, dst_local: int):
        """The network path between two comm-local ranks' GPUs."""
        src_gpu = self._gpu_of(comm.global_rank_of(src_local))
        dst_gpu = self._gpu_of(comm.global_rank_of(dst_local))
        return self.cluster.path(src_gpu, dst_gpu)

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
        arr = as_array(buf, count)
        nbytes = int(count * arr.dtype.itemsize)
        request = Request(self.engine, f"send[{src}->{dst} tag={tag}]")

        def register() -> None:
            metrics = self.engine.metrics
            path = self.path_between(comm, src, dst)
            san = self.engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires (_fire
                # acquires both records).
                san.release(request)
            if nbytes <= profile.eager_threshold:
                rec = _SendRec(src, tag, count, nbytes, "eager", path, buf)
                rec.flight = InFlight(self.engine, "mpi").snapshot(
                    buf, count, key=("m", src, dst, tag),
                    note=f"send[{src}->{dst} tag={tag}]")
                transfer = rec.flight.wire(path.reserve(self.engine.now, nbytes))
                rec.arrival_time = transfer.delivered
                # The sender's buffer is free once the payload is on the wire.
                self.engine.schedule(
                    max(0.0, transfer.inject_done - self.engine.now), request.complete
                )
            else:
                rec = _SendRec(src, tag, count, nbytes, "rdv", path, buf)
            rec.request = request
            if metrics.enabled:
                self._messages[rec.kind, size_class(nbytes), src].inc()
                self._bytes[rec.kind, src].inc(nbytes)
            self.engine.trace("mpi.send", src=src, dst=dst, tag=tag, nbytes=nbytes,
                              protocol=rec.kind, comm=comm.comm_id)
            sends, recvs = self._queues(comm.comm_id, dst)
            # Incremental matching: no pending (send, recv) pair matched
            # before this post, so only the new send can complete a pair —
            # scan the posted receives once, in FIFO order (MPI matching
            # order).
            for i, recv in enumerate(recvs):
                if _tags_match(recv, rec):
                    del recvs[i]
                    self._fire(comm, profile, rec, recv, dst)
                    return
            sends.append(rec)
            # Depth of the unexpected-message queue at this receiver; the
            # high-water mark surfaces receives posted chronically late.
            if metrics.enabled:
                self._depth["unexpected", dst].set(len(sends))

        self.engine.after_busy(register, overhead)
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
        as_array(buf, count)  # validates capacity
        request = Request(self.engine, f"recv[{src}->{dst} tag={tag}]")

        def register() -> None:
            rec = _RecvRec(src, tag, count, buf, request)
            san = self.engine.sanitizer
            if san is not None:
                # Posting happens-before the matched pair fires; the recv
                # post carries the receiver's prior accesses to the buffer
                # (e.g. a kernel read completed before re-posting).
                san.release(request)
            self.engine.trace("mpi.recv", src=src, dst=dst, tag=tag, comm=comm.comm_id)
            sends, recvs = self._queues(comm.comm_id, dst)
            # Incremental matching (see post_send): only the new receive can
            # complete a pair, against the earliest matching pending send.
            for i, send in enumerate(sends):
                if _tags_match(rec, send):
                    del sends[i]
                    self._fire(comm, profile, send, rec, dst)
                    return
            recvs.append(rec)
            if self.engine.metrics.enabled:
                self._depth["posted", dst].set(len(recvs))

        self.engine.after_busy(register, overhead)
        return request

    # ------------------------------------------------------------------ #
    # Matching and completion.
    # ------------------------------------------------------------------ #

    def _fire(self, comm, profile: MpiProfile, send: _SendRec, recv: _RecvRec, dst: int) -> None:
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
        delivery = _Delivery(engine, comm, profile, send, recv, dst)
        if send.kind == "eager":
            delivery.attempt(0)
        else:
            engine.schedule(profile.rendezvous_rtt_factor * send.path.latency,
                            lambda: delivery.attempt(0))

    # ------------------------------------------------------------------ #

    def pending_counts(self, comm_id: int, dst: int) -> Tuple[int, int]:
        """(pending sends, pending recvs) for diagnostics/tests."""
        sends, recvs = self._queues(comm_id, dst)
        return len(sends), len(recvs)
