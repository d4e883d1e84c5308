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
from ..obs import record_transfer

__all__ = ["BufferLike", "as_array", "nbytes_of", "REDUCE_OPS", "apply_reduce",
           "InFlight", "FusedCollective"]

BufferLike = Union[DeviceBuffer, np.ndarray]


def _storage(buf: BufferLike) -> np.ndarray:
    # DeviceBuffer and SymBuffer expose live storage through ``.raw``
    # (like ``.data`` but without sanitizer access recording: backend
    # internals record their payload reads/writes explicitly, with precise
    # kinds and ranges).
    raw = getattr(buf, "raw", None)
    if isinstance(raw, np.ndarray):
        return raw
    data = getattr(buf, "data", None)
    if isinstance(data, np.ndarray):
        return data
    return np.asarray(buf)


def as_array(buf: BufferLike, count: int = None) -> np.ndarray:
    """The live storage behind a device/symmetric buffer or host array."""
    arr = _storage(buf)
    if arr.ndim != 1:  # device buffers are always 1-D; skip the reshape
        arr = arr.reshape(-1)
    if count is not None:
        if count > arr.size:
            raise BackendError(f"count {count} exceeds buffer size {arr.size}")
        arr = arr[:count]
    return arr


def nbytes_of(buf: BufferLike, count: int = None) -> int:
    """Byte size of count elements (or the whole buffer)."""
    arr = _storage(buf)
    itemsize = arr.dtype.itemsize
    return int((arr.size if count is None else count) * itemsize)


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


class InFlight:
    """One payload between issue and landing — the data plane's only seam.

    The three libraries differ in who initiates a transfer and how its
    completion is observed; what happens to the payload in between does
    not differ, so it lives here once. Issue captures the revoke fence
    epoch (:meth:`Engine.fence`); :meth:`snapshot` copies the source;
    :meth:`wire` accounts the link reservation that carries it; at delivery
    the backend asks :meth:`dropped` and, unless a revoke fenced the data
    plane in between, calls :meth:`land`. Every cross-cutting subsystem
    hooks in here and nowhere else in ``repro.backends``: the sanitizer's
    payload read/write records, the capture runtime's replayable
    snapshot/delivery effects and congestion marker, the link metrics and
    ``fenced_deliveries_total``.

    What stays with each backend is what is genuinely its own: matching,
    request/op completion, whether a fenced op *retires* (GPUSHMEM, RMA) or
    *stays pending* (MPI two-sided, GPUCCL), and the sanitizer's
    acquire/release edges on its request, path or slot objects.
    """

    __slots__ = ("engine", "backend", "epoch", "src", "offset", "count",
                 "note", "key", "data")

    def __init__(self, engine, backend: str):
        self.engine = engine
        self.backend = backend  # metric label: "mpi" | "gpuccl" | "gpushmem"
        self.epoch = engine.fence_epoch
        self.data: Optional[np.ndarray] = None

    def snapshot(self, src: BufferLike, count: int, *, note: str,
                 key: Optional[tuple] = None, offset: int = 0,
                 live: bool = False) -> "InFlight":
        """Take ``count`` elements of ``src`` as this payload.

        ``key`` — ``(kind letter, *endpoint ids)`` — names the payload to
        the capture runtime (effects ``<kind>snap`` here and ``<kind>dlv``
        at landing); None keeps it out of replay. With ``live=True``
        nothing is copied now: the source is read when the payload lands,
        the closest single-snapshot approximation of a one-sided get
        racing with remote writes.
        """
        self.src, self.offset, self.count = src, offset, count
        self.note, self.key = note, key
        if live:
            self.data = None
            return self
        engine = self.engine
        san = engine.sanitizer
        if san is not None:
            san.record(src, "r", offset, count, note=note)
        arr = as_array(src, offset + count)
        view = arr[offset:] if offset else arr
        self.data = data = view.copy()
        cap = engine.capture
        if cap is not None and key is not None:
            # Replayable snapshot: refreshes the copy from the live source
            # buffer, in place.
            cap.effect((key[0] + "snap", *key[1:], _ptr(arr), count),
                       lambda: np.copyto(data, view))
        return self

    def wire(self, transfer, requested: Optional[float] = None):
        """Account the link reservation carrying this payload (requested at
        virtual time ``requested``, default now); returns ``transfer``."""
        engine = self.engine
        cap = engine.capture
        if cap is not None:
            cap.on_reserve(transfer)
        record_transfer(engine.metrics, self.backend,
                        engine.now if requested is None else requested, transfer)
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
            metrics.inc("fenced_deliveries_total", backend=self.backend)
        return True

    def land(self, dst: BufferLike, *, note: str, offset: int = 0,
             reduce: Optional[str] = None) -> None:
        """Write the payload into ``dst[offset:]`` (``reduce``: accumulate
        atomically with that op instead of overwriting)."""
        engine = self.engine
        count, data = self.count, self.data
        src, lo = self.src, self.offset
        san = engine.sanitizer
        if san is not None:
            if data is None:
                san.record(src, "r", lo, count, note=self.note)
            # Accumulates are atomic: they conflict with reads/writes but
            # not with each other ("aw").
            san.record(dst, "aw" if reduce else "w", offset, count, note=note)

        # Resolved once. Views alias live storage, so the replayed effect
        # re-reads a live source; the capture key names the buffer that
        # varies — the destination, or the remote source of a live read.
        keyed = as_array(dst)
        view = keyed[offset:offset + count]
        if data is None:
            keyed = as_array(src)
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

    def __init__(self, engine, backend: str, size: int,
                 duration: Callable[..., float], kind: str, count: int,
                 op: Optional[str], root: Optional[int], algorithm):
        self.engine = engine
        self.backend = backend
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
        flight = InFlight(self.engine, self.backend)

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
        elif kind == "alltoall":
            for dst in range(p):
                out = np.concatenate([records[src][0][dst * count:(dst + 1) * count]
                                      for src in range(p)])
                put(records[dst][1], count * p, out)
        else:  # pragma: no cover - guarded by the callers' dispatch
            raise BackendError(f"unknown collective kind {native}")
