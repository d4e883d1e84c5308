"""Uniconn's device-side API (paper Listings 5-6).

Inside a kernel launched by a PartialDevice/PureDevice Coordinator, the
injected ``ctx.uniconn`` exposes the same primitives as the host API. Like
the C++ version, these calls are 'inlined' — the modelled per-call overhead
(``UniconnCosts.device_dispatch``) is essentially zero, which is why the
paper measures <= 0.08% device-API overhead.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import UniconnError
from ..gpu.kernel import DeviceCtx
from .communicator import DeviceComm
from .launch_mode import ThreadGroup
from .reduction import resolve_op

__all__ = ["UniconnDevice", "attach_device_api"]

_GROUP_NAMES = {
    ThreadGroup.THREAD: "thread",
    ThreadGroup.WARP: "warp",
    ThreadGroup.BLOCK: "block",
}


def attach_device_api(ctx: DeviceCtx, env) -> None:
    """Bind the Uniconn device API into a kernel context (done by
    ``Coordinator.launch_kernel`` for device launch modes)."""
    ctx.attach("uniconn", UniconnDevice(ctx, env))


class UniconnDevice:
    """Per-launch device communication handle."""

    def __init__(self, ctx: DeviceCtx, env):
        self._ctx = ctx
        self._env = env
        self.engine = env.engine
        self._costs = env.costs

    def _shmem(self):
        try:
            return self._ctx.shmem
        except AttributeError:
            raise UniconnError(
                "device API used outside a collective launch (no GPUSHMEM handle)"
            ) from None

    def _charge(self) -> None:
        # Debt, like the host-side charges: the native call that follows
        # charges on top of it or settles first, so it starts where this
        # charge ends.
        self.engine.defer_busy(self._costs.device_dispatch)

    # ------------------------------------------------------------------ #

    def post(
        self,
        sendbuf,
        recvbuf,
        count: int,
        sig,
        sig_val: int,
        dest: int,
        comm: DeviceComm,
        group: Union[ThreadGroup, str] = ThreadGroup.BLOCK,
    ) -> None:
        """Device-initiated send (put). With ``sig=None`` (PartialDevice,
        Listing 6) only the payload moves; the host completes the signal."""
        self._charge()
        gname = _GROUP_NAMES[ThreadGroup(group)] if not isinstance(group, str) else group
        shmem = self._shmem()
        pe = comm.pes[dest]
        if sig is None:
            shmem.put_nbi(recvbuf, sendbuf, count, pe, group=gname)
        else:
            shmem.put_signal_nbi(recvbuf, sendbuf, count, sig, sig_val, pe, group=gname)

    def acknowledge(
        self,
        recvbuf,
        count: int,
        sig,
        sig_val: int,
        src: int,
        comm: DeviceComm,
    ) -> int:
        """Device-side completion: wait for the peer's signal."""
        self._charge()
        return self._shmem().signal_wait_until(sig, "ge", sig_val)

    # ------------------------------------------------------------------ #

    def all_reduce(self, sendbuf, recvbuf, count: int, op, comm: DeviceComm) -> None:
        """Device-side Uniconn AllReduce over the device communicator."""
        self._charge()
        comm.team.run_collective("allreduce", sendbuf, recvbuf, count, op=resolve_op(op))

    def broadcast(self, buf, count: int, root: int, comm: DeviceComm) -> None:
        """Device-side Uniconn Broadcast."""
        self._charge()
        comm.team.run_collective("broadcast", buf, buf, count, root=root)

    def barrier(self, comm: DeviceComm) -> None:
        """Device-side barrier over the device communicator."""
        self._charge()
        comm.team.run_collective("barrier", None, None, 0)

    def quiet(self) -> None:
        """Complete outstanding device-initiated puts."""
        self._charge()
        self._shmem().quiet()
