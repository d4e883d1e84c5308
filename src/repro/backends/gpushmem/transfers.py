"""One-sided data movement: the engine behind every put/get variant.

All GPUSHMEM APIs (host, on-stream, device at any thread granularity)
funnel into :func:`issue_put` / :func:`issue_get`, which reserve the
GPU-to-GPU path, apply the payload at delivery time, optionally apply a
signal update *after* the payload (NVSHMEM put-with-signal ordering), and
fire local/remote completion callbacks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from ...errors import GpushmemError
from ...obs import size_class
from ...sim import Counter
from ..common import BufferLike, InFlight, storage
from .heap import SIGNAL_ADD, SIGNAL_SET, SymBuffer

__all__ = ["PePair", "issue_put", "issue_get", "apply_signal", "check_signal"]


class PePair:
    """What is fixed for one (source PE, destination PE) pair, made on the
    pair's first one-sided op: the path between their GPUs, the (issue
    latency, delivery adjustment) a device-initiated op pays on it — the
    proxy thread off-node, direct load/store on-node — the put series, and
    the labels its payloads carry to the sanitizer and capture."""

    __slots__ = ("src", "dst", "path", "device_terms", "puts", "put_bytes", "key",
                 "put_note", "land_note")

    def __init__(self, world, src: int, dst: int):
        self.src, self.dst = src, dst
        src_gpu, dst_gpu = world.gpu_of(src), world.gpu_of(dst)
        self.path = world.cluster.path(src_gpu, dst_gpu)
        profile = world.profile
        if src == dst:
            self.device_terms = (0.0, 0.0)
        elif world.cluster.same_node(src_gpu, dst_gpu):
            self.device_terms = (0.0, -profile.device_direct_discount)
        else:
            self.device_terms = (profile.proxy_overhead, 0.0)
        self.puts: Dict[int, object] = {}  # nbytes -> series
        self.put_bytes = world.bytes_moved["put", src]
        self.key = ("p", src, dst)
        self.put_note = f"put->pe{dst}"
        self.land_note = f"put<-pe{src}"


def check_signal(sig: SymBuffer, op: str) -> None:
    """Refuse a signal update that cannot be applied — checked where a
    put-with-signal is called, before any payload is taken."""
    if op != SIGNAL_SET and op != SIGNAL_ADD:
        raise GpushmemError(f"unknown signal op {op!r}")
    if sig.count < 1:
        raise GpushmemError("signal location must hold at least one element")


def apply_signal(sig: SymBuffer, pe: int, value: int, op: str) -> None:
    """Atomically update a remote signal word (checked by
    :func:`check_signal`) and wake its watchers."""
    view = sig.view_at(pe)
    arr = view.raw
    san = view.device.engine.sanitizer
    if san is not None:
        # Signal updates are atomic: they race with reads/writes but not
        # with each other ("aw").
        san.record(view, "aw", 0, 1, note=f"signal-{op}")
    if op == SIGNAL_SET:
        arr[0] = value
    else:
        arr[0] += value
    sig.obj.notify(pe)


def issue_put(
    world,
    pair: PePair,
    dest: SymBuffer,
    src: BufferLike,
    count: int,
    *,
    signal: Optional[Tuple[SymBuffer, int, str]] = None,
    bandwidth_penalty: float = 1.0,
    extra_latency: float = 0.0,
    latency_adjust: float = 0.0,
    outstanding: Counter,
    on_local_done: Optional[Callable[[], None]] = None,
) -> None:
    """Start a put of ``count`` elements from ``src`` (on ``pair.src``)
    into ``dest`` as addressed on ``pair.dst``; it counts in
    ``outstanding`` (the issuing PE's quiet() counter) from its issue until
    it is delivered — or, fenced, retired.

    Validation (raising in the caller's frame) and the payload snapshot
    happen at the call, in the caller's own context: the source kernel or
    stream owns the buffer while the transfer is in flight. The issue, the
    wire reservation and the delivery schedule run when the caller's
    busy time has elapsed (``Engine.after_busy``), the instant a caller
    that slept its charges would issue. ``bandwidth_penalty`` < 1 models
    sub-BLOCK thread granularities; ``extra_latency`` models the
    device-initiated proxy path for inter-node traffic; ``latency_adjust``
    (possibly negative) shifts delivery for direct load/store paths,
    clamped so data never arrives before it finished leaving the source.
    """
    engine = world.engine
    san = engine.sanitizer
    src_pe, dst_pe = pair.src, pair.dst
    if count > dest.count:
        if san is not None:
            san.report_oob(dest, dest.offset, count, f"put->pe{dst_pe}")
        raise GpushmemError(f"put of {count} elements into window of {dest.count}")
    if signal is not None:
        check_signal(signal[0], signal[2])
    if bandwidth_penalty <= 0 or bandwidth_penalty > 1:
        raise GpushmemError(f"invalid bandwidth penalty {bandwidth_penalty}")
    flight = InFlight(world.plane).snapshot(
        src, storage(src, count), count, key=pair.key, note=pair.put_note)
    nbytes = flight.data.nbytes
    # Resolve the destination view once at issue time; delivery only touches
    # `.raw` (which still performs the use-after-free check).
    dst_view = dest.view_at(dst_pe)
    path = pair.path
    effective = nbytes if bandwidth_penalty == 1.0 else math.ceil(nbytes / bandwidth_penalty)

    def issue() -> None:
        outstanding.add(1)
        now = engine.now
        transfer = flight.wire(path, effective, now + extra_latency)
        if engine.metrics.enabled:
            puts = pair.puts.get(nbytes)
            if puts is None:
                puts = pair.puts[nbytes] = world.puts[size_class(nbytes), src_pe]
            puts.inc()
            pair.put_bytes.inc(nbytes)
        if on_local_done is not None:
            engine.schedule(max(0.0, transfer.inject_done - now), on_local_done)
        delay = max(
            0.0,
            transfer.inject_done - now,
            transfer.delivered - now + latency_adjust,
        )
        engine.schedule(delay, deliver)

    def deliver() -> None:
        if flight.dropped():
            # A revoke fenced the data plane while this payload was on the
            # wire: neither the payload nor the signal lands — they could
            # corrupt buffers the next generation has rebuilt — but the op
            # still *retires*, so issue-side accounting (quiet()'s
            # outstanding counter, which outlives communicator generations)
            # stays balanced.
            outstanding.add(-1)
            return
        if san is not None:
            # Deliveries on one path happen in the order their callbacks
            # run (Path.reserve serializes the wire), so chain them: a
            # later delivery — e.g. the host-side signal put completing a
            # PartialDevice exchange — carries this payload write.
            san.acquire(path)
        flight.land(dst_view, dst_view.raw, note=pair.land_note)
        if san is not None:
            san.release(path)
        dest.obj.notify(dst_pe)
        if signal is not None:
            sig, value, op = signal

            def fire_signal() -> None:
                cap = engine.capture
                if cap is not None:
                    # apply_signal re-reads the live signal word, so the
                    # same closure replays value-exactly for SET and adds
                    # exactly once per replayed iteration for ADD.
                    cap.effect(("psig", src_pe, dst_pe, value, op),
                               lambda: apply_signal(sig, dst_pe, value, op))
                apply_signal(sig, dst_pe, value, op)
                outstanding.add(-1)

            engine.schedule(world.profile.signal_overhead, fire_signal)
        else:
            outstanding.add(-1)

    engine.after_busy(issue)


def issue_get(
    world,
    pair: PePair,
    dest: BufferLike,
    src: SymBuffer,
    count: int,
    *,
    bandwidth_penalty: float = 1.0,
    extra_latency: float = 0.0,
    on_delivered: Optional[Callable[[], None]] = None,
) -> None:
    """Start a get: PE ``pair.dst`` reads ``count`` elements of ``src`` as
    addressed on ``pair.src`` into its local ``dest`` — data moves along
    the pair, from the remote PE to the reader.

    The remote memory is read at delivery time (the closest single-snapshot
    approximation of a one-sided read racing with remote writes). As in
    :func:`issue_put`, validation raises in the caller's frame and the rest
    happens when the caller's busy time has elapsed.
    """
    engine = world.engine
    san = engine.sanitizer
    reader, remote_pe = pair.dst, pair.src
    if count > src.count:
        if san is not None:
            san.report_oob(src, src.offset, count, f"get<-pe{remote_pe}")
        raise GpushmemError(f"get of {count} elements from window of {src.count}")
    local = storage(dest, count)
    nbytes = count * src.dtype.itemsize
    remote = src.view_at(remote_pe)
    path = pair.path
    effective = nbytes if bandwidth_penalty == 1.0 else math.ceil(nbytes / bandwidth_penalty)

    def issue() -> None:
        # Gets read the remote buffer at delivery time (and the replayed
        # effect repeats the same live read, so it stays value-exact).
        flight = InFlight(world.plane).snapshot(
            remote, remote.raw, count, key=("g", reader, remote_pe),
            note=f"get<-pe{remote_pe}", live=True)
        now = engine.now
        transfer = flight.wire(path, effective, now + extra_latency)
        if engine.metrics.enabled:
            world.gets[size_class(nbytes), reader].inc()
            world.bytes_moved["get", reader].inc(nbytes)

        def deliver() -> None:
            if not flight.dropped():  # fenced (see issue_put): drop the data, retire the op
                if san is not None:
                    san.acquire(path)
                flight.land(dest, local, note=f"get<-pe{remote_pe}")
                if san is not None:
                    san.release(path)
            if on_delivered is not None:
                on_delivered()

        engine.schedule(max(0.0, transfer.delivered - now), deliver)

    engine.after_busy(issue)
