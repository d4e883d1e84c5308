"""One-sided data movement: the engine behind every put/get variant.

All GPUSHMEM APIs (host, on-stream, device at any thread granularity)
funnel into :func:`issue_put` / :func:`issue_get`, which reserve the
GPU-to-GPU path, apply the payload at delivery time, optionally apply a
signal update *after* the payload (NVSHMEM put-with-signal ordering), and
fire local/remote completion callbacks.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ...errors import GpushmemError
from ...obs import size_class
from ..common import BufferLike, InFlight
from .heap import SIGNAL_ADD, SIGNAL_SET, SymBuffer

__all__ = ["issue_put", "issue_get", "apply_signal"]


def apply_signal(sig: SymBuffer, pe: int, value: int, op: str) -> None:
    """Atomically update a remote signal word and wake its watchers."""
    view = sig.view_at(pe)
    arr = view.raw
    if arr.size < 1:
        raise GpushmemError("signal location must hold at least one element")
    san = view.device.engine.sanitizer
    if san is not None:
        # Signal updates are atomic: they race with reads/writes but not
        # with each other ("aw").
        san.record(view, "aw", 0, 1, note=f"signal-{op}")
    if op == SIGNAL_SET:
        arr[0] = value
    elif op == SIGNAL_ADD:
        arr[0] += value
    else:
        raise GpushmemError(f"unknown signal op {op!r}")
    sig.obj.notify(pe)


def issue_put(
    world,
    src_pe: int,
    dst_pe: int,
    dest: SymBuffer,
    src: BufferLike,
    count: int,
    *,
    signal: Optional[Tuple[SymBuffer, int, str]] = None,
    bandwidth_penalty: float = 1.0,
    extra_latency: float = 0.0,
    latency_adjust: float = 0.0,
    on_issue: Optional[Callable[[], None]] = None,
    on_local_done: Optional[Callable[[], None]] = None,
    on_delivered: Optional[Callable[[], None]] = None,
) -> None:
    """Start a put of ``count`` elements from ``src`` (on ``src_pe``) into
    ``dest`` as addressed on ``dst_pe``.

    Validation (raising in the caller's frame) and the payload snapshot
    happen at the call, in the caller's own context: the source kernel or
    stream owns the buffer while the transfer is in flight. ``on_issue``,
    the wire reservation and the delivery schedule run when the caller's
    busy time has elapsed (``Engine.after_busy``), the instant a caller
    that slept its charges would issue. ``bandwidth_penalty`` < 1 models
    sub-BLOCK thread granularities; ``extra_latency`` models the
    device-initiated proxy path for inter-node traffic; ``latency_adjust``
    (possibly negative) shifts delivery for direct load/store paths,
    clamped so data never arrives before it finished leaving the source.
    """
    engine = world.engine
    san = engine.sanitizer
    if count > dest.count:
        if san is not None:
            san.report_oob(dest, dest.offset, count, f"put->pe{dst_pe}")
        raise GpushmemError(f"put of {count} elements into window of {dest.count}")
    flight = InFlight(engine, "gpushmem").snapshot(
        src, count, key=("p", src_pe, dst_pe), note=f"put->pe{dst_pe}")
    nbytes = flight.data.nbytes
    # Resolve the destination view once at issue time; delivery only touches
    # `.raw` (which still performs the use-after-free check).
    dst_view = dest.view_at(dst_pe)
    path = world.cluster.path(world.gpu_of(src_pe), world.gpu_of(dst_pe))
    if bandwidth_penalty <= 0 or bandwidth_penalty > 1:
        raise GpushmemError(f"invalid bandwidth penalty {bandwidth_penalty}")
    effective = int(np.ceil(nbytes / bandwidth_penalty))

    def issue() -> None:
        if on_issue is not None:
            on_issue()
        requested = engine.now + extra_latency
        transfer = flight.wire(path.reserve(requested, effective), requested)
        if engine.metrics.enabled:
            world.puts[size_class(nbytes), src_pe].inc()
            world.bytes_moved["put", src_pe].inc(nbytes)
        if on_local_done is not None:
            engine.schedule(max(0.0, transfer.inject_done - engine.now), on_local_done)
        delay = max(
            0.0,
            transfer.inject_done - engine.now,
            transfer.delivered - engine.now + latency_adjust,
        )
        engine.schedule(delay, deliver)

    def deliver() -> None:
        if flight.dropped():
            # A revoke fenced the data plane while this payload was on the
            # wire: neither the payload nor the signal lands — they could
            # corrupt buffers the next generation has rebuilt — but the op
            # still *retires* (``on_delivered``), so issue-side accounting
            # (quiet()'s outstanding counter, which outlives communicator
            # generations) stays balanced.
            if on_delivered is not None:
                on_delivered()
            return
        if san is not None:
            # Deliveries on one path happen in the order their callbacks
            # run (Path.reserve serializes the wire), so chain them: a
            # later delivery — e.g. the host-side signal put completing a
            # PartialDevice exchange — carries this payload write.
            san.acquire(path)
        flight.land(dst_view, note=f"put<-pe{src_pe}")
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
                if on_delivered is not None:
                    on_delivered()

            engine.schedule(world.profile.signal_overhead, fire_signal)
        elif on_delivered is not None:
            on_delivered()

    engine.after_busy(issue)


def issue_get(
    world,
    src_pe: int,
    dst_pe: int,
    dest: BufferLike,
    src: SymBuffer,
    count: int,
    *,
    bandwidth_penalty: float = 1.0,
    extra_latency: float = 0.0,
    on_delivered: Optional[Callable[[], None]] = None,
) -> None:
    """Start a get: PE ``src_pe`` reads ``count`` elements of ``src`` as
    addressed on ``dst_pe`` into its local ``dest``.

    The remote memory is read at delivery time (the closest single-snapshot
    approximation of a one-sided read racing with remote writes). As in
    :func:`issue_put`, validation raises in the caller's frame and the rest
    happens when the caller's busy time has elapsed.
    """
    engine = world.engine
    san = engine.sanitizer
    if count > src.count:
        if san is not None:
            san.report_oob(src, src.offset, count, f"get<-pe{dst_pe}")
        raise GpushmemError(f"get of {count} elements from window of {src.count}")
    nbytes = count * src.dtype.itemsize
    remote = src.view_at(dst_pe)
    # Gets traverse the reverse path: remote PE -> reader.
    path = world.cluster.path(world.gpu_of(dst_pe), world.gpu_of(src_pe))
    effective = int(np.ceil(nbytes / bandwidth_penalty))

    def issue() -> None:
        # Gets read the remote buffer at delivery time (and the replayed
        # effect repeats the same live read, so it stays value-exact).
        flight = InFlight(engine, "gpushmem").snapshot(
            remote, count, key=("g", src_pe, dst_pe), note=f"get<-pe{dst_pe}", live=True)
        requested = engine.now + extra_latency
        transfer = flight.wire(path.reserve(requested, effective), requested)
        if engine.metrics.enabled:
            world.gets[size_class(nbytes), src_pe].inc()
            world.bytes_moved["get", src_pe].inc(nbytes)

        def deliver() -> None:
            if not flight.dropped():  # fenced (see issue_put): drop the data, retire the op
                if san is not None:
                    san.acquire(path)
                flight.land(dest, note=f"get<-pe{dst_pe}")
                if san is not None:
                    san.release(path)
            if on_delivered is not None:
                on_delivered()

        engine.schedule(max(0.0, transfer.delivered - engine.now), deliver)

    engine.after_busy(issue)
