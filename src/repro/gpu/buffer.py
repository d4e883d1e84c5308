"""Device memory: numpy-backed buffers with explicit allocation tracking.

A :class:`DeviceBuffer` plays the role of a ``cudaMalloc``'d pointer. Slicing
returns a view over the same storage (pointer arithmetic), which the apps use
exactly like ``A_buf + nx`` in the paper's listings.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import GpuError

__all__ = ["DeviceBuffer"]


class DeviceBuffer:
    """A typed region of one device's memory."""

    __slots__ = ("device", "_array", "_root", "_offset", "freed")

    def __init__(self, device: "Device", array: np.ndarray, root: "DeviceBuffer" = None,
                 offset: int = 0):
        self.device = device
        self._array = array
        # None on the allocation itself: a buffer that pointed at itself
        # would never be freed by reference count (see :attr:`root`).
        self._root = root
        self._offset = offset  # element offset of this view within the root
        self.freed = False

    # ------------------------------------------------------------------ #

    @property
    def root(self) -> "DeviceBuffer":
        """The allocation this buffer is a view of (itself for a root)."""
        return self if self._root is None else self._root

    @property
    def data(self) -> np.ndarray:
        """The live numpy storage (a view for sliced buffers)."""
        san = self.device.engine.sanitizer
        root = self._root
        if self.freed if root is None else root.freed:
            if san is not None:
                san.report_uaf(self)
            raise GpuError("use of freed device buffer")
        if san is not None:
            san.on_data(self)
        return self._array

    @property
    def raw(self) -> np.ndarray:
        """Live storage without sanitizer access recording.

        For simulation internals whose accesses are recorded explicitly
        (payload snapshots, deliveries, signal predicates); user code goes
        through :attr:`data`, which inside kernels records a conservative
        read-write of the whole buffer.
        """
        root = self._root
        if self.freed if root is None else root.freed:
            san = self.device.engine.sanitizer
            if san is not None:
                san.report_uaf(self)
            raise GpuError("use of freed device buffer")
        return self._array

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def size(self) -> int:
        return int(self._array.size)

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    @property
    def itemsize(self) -> int:
        return int(self._array.itemsize)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------ #
    # Pointer arithmetic / views.
    # ------------------------------------------------------------------ #

    def __getitem__(self, key: slice) -> "DeviceBuffer":
        if not isinstance(key, slice):
            raise GpuError("device buffers are indexed with slices (views)")
        start, stop, step = key.indices(self._array.size)
        if step != 1:
            raise GpuError("device buffer views must be contiguous (step 1)")
        return self.offset(start, max(0, stop - start))  # reversed: empty

    def offset(self, start: int, count: int = None) -> "DeviceBuffer":
        """Pointer arithmetic: ``buf.offset(n)`` is the C ``ptr + n``; the
        same slice is the same view object."""
        if count is None or start < 0 or count < 0 or start + count > self._array.size:
            return self[start:None if count is None else start + count]  # clamped
        root = self._root
        if root is None:
            root = self
        if root.freed:  # the freed-root check, on every lookup
            self.raw  # raises (reporting the use under the sanitizer)
        array = self._array
        views = self.device._views  # one view per slice for the job
        where = (root, self._offset + start, count)
        view = views.get(where)
        if view is None:
            view = views[where] = DeviceBuffer(
                self.device, array[start:start + count], root=root, offset=where[1])
        return view

    # Same spelling as SymBuffer, so backend-agnostic code can slice any
    # communication buffer uniformly.
    offset_by = offset

    # ------------------------------------------------------------------ #
    # Raw data movement (simulation internals; *not* timed).
    # ------------------------------------------------------------------ #

    def write(self, src: Union[np.ndarray, "DeviceBuffer"], count: int = None) -> None:
        """Copy ``count`` elements (default: all of src) into this buffer.

        The source dtype must be safely castable (numpy "same_kind"): a
        float write into an int buffer is rejected instead of silently
        truncating, matching what a typed ``cudaMemcpy`` wrapper would do.
        """
        is_dev = isinstance(src, DeviceBuffer)
        src_arr = src.raw if is_dev else np.asarray(src)
        n = src_arr.size if count is None else count
        if n > self.size:
            raise GpuError(f"write of {n} elements into buffer of {self.size}")
        if n > src_arr.size:
            raise GpuError(f"write of {n} elements from source of {src_arr.size}")
        if not np.can_cast(src_arr.dtype, self.dtype, casting="same_kind"):
            raise GpuError(
                f"write of {src_arr.dtype} data into {self.dtype} buffer "
                "(lossy cast; convert explicitly)"
            )
        san = self.device.engine.sanitizer
        if san is not None:
            if is_dev:
                san.record(src, "r", 0, n)
            san.record(self, "w", 0, n)
        # Common case: 1-D source, full-size write — no intermediate views.
        if src_arr.ndim == 1:
            self.data[:n] = src_arr if n == src_arr.size else src_arr[:n]
        else:
            self.data[:n] = src_arr.reshape(-1)[:n]

    def read(self, count: int = None) -> np.ndarray:
        """Snapshot ``count`` elements (default: all) as a host array."""
        n = self.size if count is None else count
        if n > self.size:
            raise GpuError(f"read of {n} elements from buffer of {self.size}")
        san = self.device.engine.sanitizer
        if san is not None:
            san.record(self, "r", 0, n)
        return self.data[:n].copy()

    def fill(self, value) -> None:
        san = self.device.engine.sanitizer
        if san is not None:
            san.record(self, "w", 0, self.size)
        self.data[:] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DeviceBuffer dev={self.device.gpu_id} {self.dtype}[{self.size}]>"
