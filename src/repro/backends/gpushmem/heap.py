"""The symmetric heap: same allocations, same order, on every PE.

``shmem_malloc`` is collective; the n-th allocation on every PE refers to
the same *symmetric object*, so a PE can name remote memory by its own local
handle plus a PE number (the OpenSHMEM addressing model). A
:class:`SymBuffer` is one PE's handle: it knows its offset inside the
symmetric object, so slices (`sync_arr + 1` style pointer arithmetic)
translate correctly to every peer.

Waiting is built in: every symmetric object carries, *per PE*, an update
broadcast and a watcher list, which is what ``signal_wait_until``
(device/task side) and ``signal_wait_until_on_stream`` (host side) hang
off. A waiter watches its own PE's copy, so the wake contract is: whoever
changes the object's memory on a PE must ``notify`` *the PE whose memory
changed* — and only that PE's predicates are evaluated, so an update costs
O(its waiters), not O(all PEs).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import GpushmemError
from ...gpu.buffer import DeviceBuffer
from ...sim import Broadcast

__all__ = ["SymObject", "SymBuffer", "SIGNAL_SET", "SIGNAL_ADD", "CMP"]

SIGNAL_SET = "set"
SIGNAL_ADD = "add"

CMP = {
    "eq": operator.eq,
    "ne": operator.ne,
    "gt": operator.gt,
    "ge": operator.ge,
    "lt": operator.lt,
    "le": operator.le,
}


class SymObject:
    """One collective allocation, with per-PE backing storage."""

    def __init__(self, engine, index: int, count: int, dtype: np.dtype, npes: int):
        self.engine = engine
        self.index = index
        self.count = count
        self.dtype = np.dtype(dtype)
        self.npes = npes
        self.per_pe: Dict[int, DeviceBuffer] = {}
        self.updated = [Broadcast(engine, f"sym{index}") for _ in range(npes)]
        self._watchers: List[List[Tuple[Callable[[], bool], Callable[[], None]]]] = [
            [] for _ in range(npes)]
        # (pe, offset, count) -> the one SymBuffer of that slice (see
        # :meth:`slice`); each points back here, so close() empties it.
        self._slices: Dict[Tuple[int, int, int], "SymBuffer"] = {}

    def slice(self, pe: int, offset: int, count: int) -> "SymBuffer":
        """PE ``pe``'s handle on ``[offset:offset + count]``: the same object
        for the same slice, for the whole job."""
        where = (pe, offset, count)
        buf = self._slices.get(where)
        if buf is None:
            buf = self._slices[where] = SymBuffer(self, pe, offset, count)
        return buf

    def close(self) -> None:
        """Drop the slice table (the finished job's ``RendezvousBoard.close``)."""
        self._slices.clear()

    def attach(self, pe: int, buf: DeviceBuffer) -> None:
        """Register one PE's local storage for this symmetric object."""
        if pe in self.per_pe:
            raise GpushmemError(f"PE {pe} allocated symmetric object {self.index} twice")
        self.per_pe[pe] = buf

    def check_symmetric(self, count: int, dtype) -> None:
        """Validate that an allocation matches the other PEs' shape."""
        if count != self.count or np.dtype(dtype) != self.dtype:
            raise GpushmemError(
                f"asymmetric allocation #{self.index}: "
                f"{count}x{np.dtype(dtype)} vs {self.count}x{self.dtype} on other PEs"
            )

    def storage(self, pe: int) -> DeviceBuffer:
        """The backing device buffer of this object on one PE."""
        buf = self.per_pe.get(pe)
        if buf is None:
            raise GpushmemError(f"PE {pe} has not allocated symmetric object {self.index}")
        return buf

    # -------------------------------------------------------------- #
    # Update notification (signals, waits).
    # -------------------------------------------------------------- #

    def watch(self, pe: int, predicate: Callable[[], bool],
              callback: Callable[[], None]) -> None:
        """Run ``callback`` once ``predicate`` — over this object's memory
        on ``pe`` — holds (checked on that PE's updates)."""
        if predicate():
            san = self.engine.sanitizer
            if san is not None:
                san.run_acquired(self.updated[pe], callback)
            else:
                callback()
        else:
            self._watchers[pe].append((predicate, callback))

    def notify(self, pe: int) -> None:
        """Declare that this object's memory changed on ``pe``."""
        updated = self.updated[pe]
        san = self.engine.sanitizer
        if san is not None:
            # Watcher callbacks act for their waiters: order them after the
            # memory update they observed.
            san.release(updated)
        watchers = self._watchers[pe]
        if watchers:
            still = []
            for predicate, callback in watchers:
                if predicate():
                    if san is not None:
                        san.run_acquired(updated, callback)
                    else:
                        callback()
                else:
                    still.append((predicate, callback))
            self._watchers[pe] = still
        updated.notify_all()


class SymBuffer:
    """One PE's handle on (a slice of) a symmetric object."""

    __slots__ = ("obj", "my_pe", "offset", "count", "_views")

    def __init__(self, obj: SymObject, my_pe: int, offset: int = 0, count: Optional[int] = None):
        self.obj = obj
        self.my_pe = my_pe
        self.offset = offset
        self.count = obj.count - offset if count is None else count
        if self.offset < 0 or self.offset + self.count > obj.count:
            raise GpushmemError(
                f"symmetric slice [{offset}:{offset + self.count}] outside "
                f"allocation of {obj.count} elements"
            )
        self._views: Dict[int, DeviceBuffer] = {}

    # ------------------------------------------------------------------ #

    @property
    def dtype(self) -> np.dtype:
        return self.obj.dtype

    @property
    def nbytes(self) -> int:
        return self.count * self.obj.dtype.itemsize

    @property
    def size(self) -> int:
        return self.count

    def __len__(self) -> int:
        return self.count

    @property
    def local(self) -> DeviceBuffer:
        """This PE's own storage for the slice."""
        return self.view_at(self.my_pe)

    @property
    def data(self) -> np.ndarray:
        """Local live numpy storage (lets SymBuffer act as a BufferLike)."""
        return self.local.data

    @property
    def raw(self) -> np.ndarray:
        """Local storage without sanitizer recording (simulation internals)."""
        view = self._views.get(self.my_pe)
        return (view if view is not None else self.view_at(self.my_pe)).raw

    def view_at(self, pe: int) -> DeviceBuffer:
        """The slice's storage on PE ``pe`` (the one-sided address map).

        Views are cached per PE: this sits under every put/get *and* every
        signal-predicate evaluation. Use-after-free is still caught, since
        the cached view's ``.data`` checks the root allocation.
        """
        view = self._views.get(pe)
        if view is None:
            view = self.obj.storage(pe).offset(self.offset, self.count)
            self._views[pe] = view
        return view

    def __getitem__(self, key: slice) -> "SymBuffer":
        if not isinstance(key, slice):
            raise GpushmemError("symmetric buffers are indexed with slices")
        start, stop, step = key.indices(self.count)
        if step != 1:
            raise GpushmemError("symmetric buffer slices must be contiguous")
        return self.offset_by(start, max(0, stop - start))  # reversed: empty, as numpy

    def offset_by(self, start: int, count: Optional[int] = None) -> "SymBuffer":
        """Pointer arithmetic: ``buf.offset_by(n)`` is ``ptr + n``; the same
        slice is the same object."""
        if count is None or start < 0 or count < 0 or start + count > self.count:
            return self[start:self.count if count is None else start + count]  # clamped
        obj = self.obj
        buf = obj._slices.get((self.my_pe, self.offset + start, count))
        return buf if buf is not None else obj.slice(self.my_pe, self.offset + start, count)

    def read(self) -> np.ndarray:
        """Snapshot the local window contents."""
        return self.local.read()

    def write(self, values) -> None:
        """Overwrite the local window and wake watchers.

        Goes through :meth:`DeviceBuffer.write`, so a lossy cast (e.g.
        float data into an int window) is rejected uniformly instead of
        being forced through ``np.asarray``.
        """
        self.obj.engine.settle()  # a host write happens at the host's own time
        self.local.write(values)
        self.obj.notify(self.my_pe)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SymBuffer obj={self.obj.index} pe={self.my_pe} "
            f"[{self.offset}:{self.offset + self.count}] {self.dtype}>"
        )
