"""The Uniconn Memory construct (paper Section IV-D).

All communication buffers are allocated through :class:`Memory` so that the
same application code works on every backend: with GPUSHMEM the allocation
lands on the symmetric heap (mandatory for one-sided access); with MPI and
GPUCCL it is a plain device allocation kept in a dedicated region — except
on the ``mpi-rma`` backend, where MPI allocations are additionally exposed
through an RMA window (collective), enabling the one-sided
Post/Acknowledge path.
"""

from __future__ import annotations

import numpy as np

from ..errors import UniconnError
from ..gpu.buffer import DeviceBuffer
from .backend import GpushmemBackend
from .environment import Environment

__all__ = ["Memory", "RmaBuffer"]


class RmaBuffer:
    """A device buffer exposed through an MPI RMA window.

    Quacks like a :class:`DeviceBuffer` (``data``/``offset_by``/``read``/
    ``write``) while remembering its window and displacement, so Uniconn's
    one-sided MPI path can address the same region on any peer — the RMA
    analogue of a symmetric-heap address.
    """

    __slots__ = ("window", "dev", "disp", "count")

    def __init__(self, window, dev: DeviceBuffer, disp: int = 0, count: int = None):
        self.window = window
        self.dev = dev
        self.disp = disp
        self.count = dev.size if count is None else count

    @property
    def data(self) -> np.ndarray:
        """Live numpy storage of the local buffer."""
        return self.dev.data

    @property
    def raw(self) -> np.ndarray:
        """Live storage without sanitizer recording (simulation internals)."""
        return self.dev.raw

    @property
    def dtype(self):
        """Element dtype."""
        return self.dev.dtype

    @property
    def size(self) -> int:
        """Element count of this view."""
        return self.count

    def __len__(self) -> int:
        return self.count

    def offset_by(self, start: int, count: int = None) -> "RmaBuffer":
        """Pointer arithmetic producing a sub-view sharing the window."""
        n = (self.count - start) if count is None else count
        return RmaBuffer(self.window, self.dev.offset(start, n), self.disp + start, n)

    # Pointer-style alias, mirroring DeviceBuffer.
    offset = offset_by

    def read(self) -> np.ndarray:
        """Snapshot the local contents."""
        return self.dev.read()

    def write(self, values) -> None:
        """Overwrite the local contents and wake window watchers.

        Routed through :meth:`DeviceBuffer.write` so lossy casts are
        rejected here exactly as on every other backend.
        """
        self.dev.write(values)
        self.window.shared.updated.notify_all()

    def fill(self, value) -> None:
        """Fill the local contents with one value."""
        self.dev.fill(value)


class Memory:
    """Backend-aware allocation of communication buffers."""

    @staticmethod
    def alloc(env: Environment, count: int, *, dtype=np.float32):
        """Allocate ``count`` elements of communication memory.

        Collective on GPUSHMEM (every process must call it in the same
        order with the same shape — the symmetric-heap contract) and on the
        ``mpi-rma`` backend (window creation is collective).
        """
        env.engine.metrics.inc(
            "memory_alloc_total",
            backend=env.backend.name,
            rank=env.world_rank(),
        )
        env.engine.metrics.inc(
            "memory_alloc_bytes_total",
            count * np.dtype(dtype).itemsize,
            backend=env.backend.name,
            rank=env.world_rank(),
        )
        if env.backend is GpushmemBackend:
            return env.shmem.malloc(count, dtype)
        dev = env.device.malloc(count, dtype)
        if env.mpi_rma:
            from ..backends.mpi.rma import MpiWindow

            return RmaBuffer(MpiWindow(env.mpi.comm_world, dev, count), dev)
        return dev

    @staticmethod
    def free(env: Environment, buf) -> None:
        """Release a buffer allocated with :meth:`alloc`."""
        if env.backend is GpushmemBackend:
            env.shmem.free(buf)
            return
        if isinstance(buf, RmaBuffer):
            if buf.disp != 0 or buf.count != buf.window.count:
                raise UniconnError("Memory.free needs the root RMA allocation, not a slice")
            buf.window.free()
            env.device.free(buf.dev)
            return
        if not isinstance(buf, DeviceBuffer):
            raise UniconnError(f"Memory.free: not a device buffer: {buf!r}")
        env.device.free(buf)
