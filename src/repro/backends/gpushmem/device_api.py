"""GPUSHMEM device-side API, used from inside device kernels.

An instance is injected as ``ctx.shmem`` by ``collective_launch``. All
methods run on the kernel's simulated task, so blocking calls
(``signal_wait_until``, blocking ``put``, ``barrier_all``) suspend the
kernel mid-execution — the behaviour that makes ``PureDevice`` solvers
possible without any host round-trip.

Thread-group granularity (paper Section IV-F4): BLOCK-granularity transfers
use the full link; WARP and THREAD variants reach only a fraction of the
bandwidth (all threads of the group cooperate on the copy; fewer lanes =
less memory-level parallelism), modelled by the machine profile's
granularity penalties.
"""

from __future__ import annotations

from typing import Optional

from ...errors import GpushmemError
from ...gpu.kernel import DeviceCtx
from ...sim import SimEvent
from ..common import BufferLike
from .heap import SIGNAL_SET, SymBuffer
from .transfers import issue_get

__all__ = ["ShmemDevice", "THREAD", "WARP", "BLOCK"]

THREAD = "thread"
WARP = "warp"
BLOCK = "block"


class ShmemDevice:
    """Device-side handle bound to one kernel launch."""

    def __init__(self, ctx, kernel_ctx: DeviceCtx):
        self._ctx = ctx  # the host ShmemContext
        self._kctx = kernel_ctx
        self.engine = ctx.engine
        self.my_pe = ctx.my_pe
        self.n_pes = ctx.n_pes
        self.profile = ctx.profile

    # ------------------------------------------------------------------ #

    def _penalty(self, group: str) -> float:
        if group == BLOCK:
            return 1.0
        if group == WARP:
            return self.profile.warp_granularity_penalty
        if group == THREAD:
            return self.profile.thread_granularity_penalty
        raise GpushmemError(f"unknown thread group {group!r}")

    def _issue(self, dest: SymBuffer, src: BufferLike, count: int, pe: int,
               signal, group: str) -> None:
        """Charge the issue cost as debt and put: the payload is taken now,
        in the kernel's own context; it goes on the wire when the charge
        has elapsed."""
        self.engine.defer_busy(self.profile.device_post_overhead)
        self._ctx._issue_put(
            self._ctx._pair(pe), dest, src, count,
            signal=signal,
            penalty=self._penalty(group),
            device_initiated=True,
        )

    # ------------------------------------------------------------------ #
    # Puts / gets.
    # ------------------------------------------------------------------ #

    def put_nbi(self, dest: SymBuffer, src: BufferLike, count: int, pe: int,
                group: str = BLOCK) -> None:
        """Nonblocking put; complete it with ``quiet()``."""
        self._issue(dest, src, count, pe, None, group)

    def put(self, dest: SymBuffer, src: BufferLike, count: int, pe: int,
            group: str = BLOCK) -> None:
        """Blocking put: returns when delivered at the target."""
        before = self._ctx._outstanding_at_own_time()
        self._issue(dest, src, count, pe, None, group)
        self._ctx._outstanding.wait_for(lambda v: v <= before[0])

    def put_signal_nbi(self, dest: SymBuffer, src: BufferLike, count: int,
                       sig: SymBuffer, value: int, pe: int,
                       op: str = SIGNAL_SET, group: str = BLOCK) -> None:
        """Nonblocking put-with-signal: the paper's halo-exchange primitive
        (``nvshmemx_float_put_signal_nbi_block``)."""
        self._issue(dest, src, count, pe, (sig, value, op), group)

    def get(self, dest: BufferLike, src: SymBuffer, count: int, pe: int,
            group: str = BLOCK) -> None:
        """Blocking get from PE ``pe``."""
        ctx = self._ctx
        extra = ctx._pair(pe).device_terms[0]  # range-checks pe
        self.engine.defer_busy(self.profile.device_post_overhead)
        done = SimEvent(self.engine, "dev-get")
        issue_get(
            ctx.world, ctx.world.pair(pe, self.my_pe), dest, src, count,
            bandwidth_penalty=self._penalty(group),
            extra_latency=extra,
            on_delivered=done.set,
        )
        done.wait()

    # ------------------------------------------------------------------ #
    # Synchronization.
    # ------------------------------------------------------------------ #

    def signal_wait_until(self, sig: SymBuffer, cmp: str, value: int,
                          timeout: Optional[float] = None) -> int:
        """Spin the kernel until the local signal satisfies the compare.

        ``timeout`` (virtual seconds) bounds the spin — see the host-side
        :meth:`ShmemContext.signal_wait_until`.
        """
        return self._ctx.signal_wait_until(sig, cmp, value, timeout=timeout)

    def quiet(self) -> None:
        """Complete all outstanding nonblocking puts from this PE."""
        self._ctx._outstanding.wait_for(lambda v: v == 0)

    def fence(self) -> None:
        """Order preceding puts before subsequent ones (cheap; FIFO paths)."""
        self.engine.defer_busy(self.profile.device_post_overhead / 4)

    def barrier_all(self) -> None:
        """Device-side barrier across all PEs (requires collective launch
        on every PE, or the kernels deadlock — as on real hardware)."""
        self._ctx.team_world.run_collective("barrier", None, None, 0)

    # Collectives from device code share the host slot machinery.

    def allreduce(self, send: BufferLike, recv: BufferLike, count: int, op: str = "sum") -> None:
        """Device-side team allreduce (blocks the kernel)."""
        self._ctx.team_world.run_collective("allreduce", send, recv, count, op=op)

    def broadcast(self, send: BufferLike, recv: BufferLike, count: int, root: int) -> None:
        """Device-side team broadcast (blocks the kernel)."""
        self._ctx.team_world.run_collective("broadcast", send, recv, count, root=root)
