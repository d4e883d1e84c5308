"""What the backend libraries share: buffer coercion, reductions, and the
data plane — the life of a payload between issue and landing
(:class:`InFlight`) and the fused-collective rendezvous
(:class:`FusedCollective`). See docs/MODEL.md, "Data plane"."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..coll import CANONICAL_SHMEM_KINDS
from ..errors import BackendError
from ..gpu.buffer import DeviceBuffer

__all__ = ["BufferLike", "storage", "as_array", "REDUCE_OPS", "apply_reduce",
           "DataPlane", "InFlight", "FusedCollective"]

BufferLike = Union[DeviceBuffer, np.ndarray]


def storage(buf: BufferLike, count: int = 0) -> np.ndarray:
    """The live 1-D storage behind a device/symmetric buffer or host array,
    checked to hold at least ``count`` elements.

    Device, symmetric and RMA buffers expose it as ``.raw`` (like ``.data``
    but without sanitizer access recording: backend internals record their
    payload reads/writes explicitly, with precise kinds and ranges; ``.raw``
    still refuses a freed buffer). A backend resolves each side of a
    transfer once, where the call is made, and hands the array on.
    """
    if isinstance(buf, np.ndarray):
        arr = buf if buf.ndim == 1 else buf.reshape(-1)
    else:
        try:
            arr = buf.raw  # device buffers are always 1-D
        except AttributeError:
            arr = np.asarray(buf).reshape(-1)
    if count > arr.size:
        raise BackendError(f"count {count} exceeds buffer size {arr.size}")
    return arr


def as_array(buf: BufferLike, count: int = None) -> np.ndarray:
    """The live storage behind a buffer (its first ``count`` elements)."""
    if count is None:
        return storage(buf)
    return storage(buf, count)[:count]


REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


def apply_reduce(op: str, acc: np.ndarray, update: np.ndarray) -> None:
    """In-place ``acc = acc <op> update``."""
    try:
        ufunc = REDUCE_OPS[op]
    except KeyError:
        raise BackendError(f"unknown reduction op {op!r}; known: {sorted(REDUCE_OPS)}") from None
    ufunc(acc, update, out=acc)


# --------------------------------------------------------------------- #
# The data plane: one payload, from issue to landing.
# --------------------------------------------------------------------- #


def _ptr(arr: np.ndarray) -> int:
    """Stable identity of a buffer's storage for capture effect keys."""
    return arr.__array_interface__["data"][0]


class DataPlane:
    """One backend world's end of the data plane, fixed when the world is
    made: its engine, its metric label, and the two link series every wire
    reservation feeds — the queueing delay behind earlier messages on a
    shared link, and the wire-occupancy seconds (link utilization, divided
    by the run's makespan)."""

    __slots__ = ("engine", "backend", "queue_delay", "busy")

    def __init__(self, engine, backend: str):
        self.engine = engine
        self.backend = backend  # metric label: "mpi" | "gpuccl" | "gpushmem"
        metrics = engine.metrics
        self.queue_delay = metrics.bind_histogram("link_queue_delay_seconds",
                                                  backend=backend)
        self.busy = metrics.bind_counter("link_busy_seconds_total", backend=backend)


class InFlight:
    """One payload between issue and landing — the data plane's only seam.

    The three libraries differ in who initiates a transfer and how its
    completion is observed; what happens to the payload in between does
    not differ, so it lives here once. Issue captures the revoke fence
    epoch (:meth:`Engine.fence`); :meth:`snapshot` copies the source;
    :meth:`wire` reserves the path that carries it and accounts the
    reservation; at delivery the backend asks :meth:`dropped` and, unless a
    revoke fenced the data plane in between, calls :meth:`land`. Every
    cross-cutting subsystem hooks in here and nowhere else in
    ``repro.backends``: the sanitizer's payload read/write records, the
    capture runtime's replayable snapshot/delivery effects and congestion
    marker, the link metrics and ``fenced_deliveries_total``.

    Both ends take a buffer *and* its storage array (:func:`storage`),
    which the backend resolved once where the transfer was made: the
    buffer is what the sanitizer records, the array is what moves.

    What stays with each backend is what is genuinely its own: matching,
    request/op completion, whether a fenced op *retires* (GPUSHMEM, RMA) or
    *stays pending* (MPI two-sided, GPUCCL), the per-pair records that fix
    each (src, dst) pair's path, labels and series, and the sanitizer's
    acquire/release edges on its request, path or slot objects.
    """

    __slots__ = ("plane", "engine", "epoch", "src", "src_arr", "offset", "count",
                 "note", "key", "data")

    def __init__(self, plane: DataPlane):
        self.plane = plane
        self.engine = engine = plane.engine
        self.epoch = engine.fence_epoch
        self.data: Optional[np.ndarray] = None

    def snapshot(self, src: BufferLike, arr: np.ndarray, count: int, *, note: Optional[str],
                 key: Optional[tuple] = None, offset: int = 0,
                 live: bool = False) -> "InFlight":
        """Take ``count`` elements of ``src`` from ``offset`` as this
        payload; ``arr`` is ``src``'s storage, checked by the caller to
        hold them.

        ``key`` — ``(kind letter, *endpoint ids)`` — names the payload to
        the capture runtime (effects ``<kind>snap`` here and ``<kind>dlv``
        at landing); None keeps it out of replay. ``note`` names the read
        to the race sanitizer (None when none runs). With ``live=True``
        nothing is copied now: the source is read when the payload lands,
        the closest single-snapshot approximation of a one-sided get
        racing with remote writes.
        """
        self.src, self.src_arr, self.offset, self.count = src, arr, offset, count
        self.note, self.key = note, key
        if live:
            self.data = None
            return self
        engine = self.engine
        san = engine.sanitizer
        if san is not None:
            san.record(src, "r", offset, count, note=note)
        view = arr if offset == 0 and count == arr.size else arr[offset:offset + count]
        self.data = data = view.copy()
        cap = engine.capture
        if cap is not None and key is not None:
            # Replayable snapshot: refreshes the copy from the live source
            # buffer, in place.
            cap.effect((key[0] + "snap", *key[1:], _ptr(arr), count),
                       lambda: np.copyto(data, view))
        return self

    def wire(self, path, nbytes: int, requested: float):
        """Reserve ``path`` for ``nbytes`` from virtual time ``requested``
        and account the reservation; returns the :class:`Transfer`. Any gap
        between ``requested`` and the transfer's start is queueing delay
        behind earlier messages on a shared link."""
        transfer = path.reserve(requested, nbytes)
        cap = self.engine.capture
        if cap is not None:
            cap.on_reserve(transfer)
        plane = self.plane
        plane.queue_delay.observe(transfer.start - requested)
        plane.busy.inc(transfer.inject_done - transfer.start)
        return transfer

    @property
    def fenced(self) -> bool:
        """True once a revoke fenced the data plane after issue."""
        return self.engine.fence_epoch != self.epoch

    def dropped(self) -> bool:
        """:attr:`fenced`, counted: the delivery-time check. A fenced
        payload must never land — the destination may already belong to
        the next communicator generation."""
        if self.engine.fence_epoch == self.epoch:
            return False
        metrics = self.engine.metrics
        if metrics.enabled:
            metrics.inc("fenced_deliveries_total", backend=self.plane.backend)
        return True

    def land(self, dst: BufferLike, arr: np.ndarray, *, note: Optional[str], offset: int = 0,
             reduce: Optional[str] = None) -> None:
        """Write the payload into ``dst[offset:]``, whose storage is ``arr``
        (``reduce``: accumulate atomically with that op instead of
        overwriting); ``note`` names the write to the race sanitizer, and
        nothing reads it when none is installed."""
        engine = self.engine
        count, data = self.count, self.data
        san = engine.sanitizer
        if san is not None:
            if data is None:
                san.record(self.src, "r", self.offset, count, note=self.note)
            # Accumulates are atomic: they conflict with reads/writes but
            # not with each other ("aw").
            san.record(dst, "aw" if reduce else "w", offset, count, note=note)

        # Views alias live storage, so the replayed effect re-reads a live
        # source; the capture key names the buffer that varies — the
        # destination, or the remote source of a live read.
        keyed = arr
        view = arr if offset == 0 and count == arr.size else arr[offset:offset + count]
        if data is None:
            keyed, lo = self.src_arr, self.offset
            data = keyed[lo:lo + count]
        if reduce is None:
            view[:] = data
        else:
            apply_reduce(reduce, view, data)
        cap = engine.capture
        if cap is not None and self.key is not None:
            # Replayable delivery: lands the (re-snapshotted, or re-read)
            # payload; freshen=True so a pending in-flight delivery is
            # overwritten with current data after a takeover.
            key = self.key
            cap.effect((key[0] + "dlv", *key[1:], _ptr(keyed), count),
                       (lambda: np.copyto(view, data)) if reduce is None else
                       (lambda: apply_reduce(reduce, view, data)),
                       freshen=True)


class FusedCollective:
    """Rendezvous for one fused collective invocation across members.

    GPUCCL and GPUSHMEM collectives are single fused operations with
    analytic timing: every member arrives with a snapshot of its
    contribution, the last arrival prices the whole collective
    (``duration(kind, nbytes, algorithm, protocol, channels)``) and all
    members complete together that much later, results applied at
    completion — unless a revoke fenced the data plane in between, in
    which case nothing is applied and the members stay pending. ``kind``
    is the backend's native name (NVSHMEM's ``allreduce``/``fcollect`` map
    to the canonical ``all_reduce``/``all_gather`` only for the apply
    step), so labels and messages stay the library's own.
    """

    def __init__(self, plane: DataPlane, size: int,
                 duration: Callable[..., float], kind: str, count: int,
                 op: Optional[str], root: Optional[int], algorithm):
        self.plane = plane
        self.engine = plane.engine
        backend = plane.backend
        self.size = size
        self.duration = duration
        # (kind, count, op, root, algorithm, protocol, channels): the slot
        # keys on algorithm, protocol and channels too, so a member
        # arriving with a different wire protocol is a call-order
        # mismatch, same as a different algorithm.
        self.signature = self._signature(kind, count, op, root, algorithm)
        self.note = f"{backend.removeprefix('gpu')}-{kind}"  # "ccl-…" / "shmem-…"
        self.records: Dict[int, Tuple[Optional[np.ndarray], Optional[BufferLike]]] = {}
        self.finishers: List[Callable[[], None]] = []

    @staticmethod
    def _signature(kind, count, op, root, algorithm) -> tuple:
        return (kind, count, op, root, str(algorithm), algorithm.protocol,
                algorithm.channels)

    def mismatch(self, kind, count, op, root, algorithm) -> Optional[Tuple[str, str]]:
        """``(got, expected)`` descriptions when this call is not the
        collective the slot was opened for, else None."""
        got = self._signature(kind, count, op, root, algorithm)
        if got == self.signature:
            return None
        describe = ("{}(count={}, op={}, root={}, algorithm={}, protocol={}, "
                    "channels={})").format
        return describe(*got), describe(*self.signature)

    def arrive(self, member: int, send: Optional[BufferLike], n_send: int,
               recv: Optional[BufferLike],
               finish: Optional[Callable[[], None]] = None) -> None:
        """Join with a snapshot of ``send[:n_send]``; ``finish`` runs at
        completion. The last arrival fires the collective."""
        san = self.engine.sanitizer
        snapshot = None
        if send is not None:
            if san is not None:
                san.record(send, "r", 0, n_send, note=self.note)
            snapshot = as_array(send, n_send).copy()
        if san is not None:
            # Every arrival happens-before the collective completes.
            san.release(self)
        self.records[member] = (snapshot, recv)
        if finish is not None:
            self.finishers.append(finish)
        if len(self.records) == self.size:
            self._fire()

    def _fire(self) -> None:
        itemsize = next((snap.dtype.itemsize for snap, _ in self.records.values()
                         if snap is not None), 1)
        kind, count = self.signature[:2]
        duration = self.duration(kind, count * itemsize, *self.signature[4:])
        flight = InFlight(self.plane)

        def complete() -> None:
            if flight.dropped():
                return
            san = self.engine.sanitizer
            if san is not None:
                # Ordered after every member's arrival, not only the last
                # one (whose context this scheduled callback inherits).
                san.acquire(self)
            self._apply(san)
            for finish in self.finishers:
                finish()

        self.engine.schedule(duration, complete)

    def _apply(self, san) -> None:
        native, count, op, root = self.signature[:4]
        kind = CANONICAL_SHMEM_KINDS.get(native, native)
        if kind == "barrier":
            return
        p, note, records = self.size, self.note, self.records

        def put(recv, n, payload) -> None:
            if recv is None:
                return
            if san is not None:
                san.record(recv, "w", 0, n, note=note)
            as_array(recv)[:n] = payload

        if kind in ("all_reduce", "reduce", "reduce_scatter"):
            total = records[0][0].copy()
            for r in range(1, p):
                apply_reduce(op, total, records[r][0])
            if kind == "all_reduce":
                for _, recv in records.values():
                    put(recv, count, total)
            elif kind == "reduce":
                put(records[root][1], count, total)
            else:  # reduce_scatter: member r keeps chunk r
                for r, (_, recv) in records.items():
                    put(recv, count, total[r * count:(r + 1) * count])
        elif kind == "broadcast":
            payload = records[root][0]
            for _, recv in records.values():
                put(recv, count, payload)
        elif kind == "all_gather":
            gathered = np.concatenate([records[r][0] for r in range(p)])
            for _, recv in records.values():
                put(recv, count * p, gathered)
        elif kind == "all_to_all":
            for dst in range(p):
                out = np.concatenate([records[src][0][dst * count:(dst + 1) * count]
                                      for src in range(p)])
                put(records[dst][1], count * p, out)
        else:  # pragma: no cover - guarded by the callers' dispatch
            raise BackendError(f"unknown collective kind {native}")
