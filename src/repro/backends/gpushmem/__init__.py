"""Simulated GPUSHMEM (NVSHMEM-like): one-sided PGAS with host+device APIs.

Usage, mirroring the paper's native-GPUSHMEM applications::

    shmem = ShmemContext(rank_ctx)             # nvshmem_init
    a_buf = shmem.malloc(2 * nx)               # symmetric heap
    sync = shmem.malloc(4, np.uint64)
    # Host/stream API:
    shmem.put_signal_on_stream(a_buf, local, nx, sync, it, top, stream)
    shmem.signal_wait_until_on_stream(sync, "ge", it, stream)
    # Device API (inside a @device_kernel, launched collectively):
    shmem.collective_launch(jacobi_kernel, grid, block, args, stream)
    # ... and in the kernel body:
    #   ctx.shmem.put_signal_nbi(dest, src, nx, sig, it, top, group=BLOCK)
    #   ctx.shmem.signal_wait_until(sig, "ge", it)
"""

from .collectives import ShmemTeam
from .context import ShmemContext, ShmemWorld
from .device_api import BLOCK, THREAD, WARP, ShmemDevice
from .heap import CMP, SIGNAL_ADD, SIGNAL_SET, SymBuffer, SymObject

__all__ = [
    "ShmemTeam",
    "ShmemContext",
    "ShmemWorld",
    "BLOCK",
    "THREAD",
    "WARP",
    "ShmemDevice",
    "CMP",
    "SIGNAL_ADD",
    "SIGNAL_SET",
    "SymBuffer",
    "SymObject",
]
