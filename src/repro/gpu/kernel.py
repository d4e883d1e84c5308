"""Kernel specifications and the device-side execution context.

A kernel body is a Python function ``fn(ctx, *args)`` operating on
:class:`~repro.gpu.buffer.DeviceBuffer` data with numpy. Its simulated
duration comes from a declared :class:`~repro.hardware.gpu.KernelCost`
(roofline model), not from how long the numpy code takes on this host.

Two execution models, mirroring the paper:

- *compute-only* kernels (``uses_device_comm=False``): the body runs once at
  completion time; duration = launch overhead + roofline time. This is the
  ``PureHost`` world.
- *device-communication* kernels (``uses_device_comm=True``): the body runs
  on its own simulated task, so it can issue device-initiated communication
  and block on signals mid-kernel (``PureDevice``/``PartialDevice``). The
  body charges its compute explicitly via ``ctx.compute(...)`` (models
  compute *before* the next statement) or ``ctx.charge(...)``
  (accumulated, applied when the kernel ends).

We execute one body per launch, not one per thread-block: block-level
behaviour (granularity, signal waits) is expressed through the ctx API and
the cost model. DESIGN.md documents this simplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Union

from ..hardware.gpu import KernelCost

__all__ = ["KernelSpec", "DeviceCtx", "kernel", "device_kernel"]


@dataclass
class DeviceCtx:
    """What a kernel body sees: launch geometry plus cost accounting.

    Backends attach device-side communication handles to the context (e.g.
    ``ctx.shmem`` for GPUSHMEM device APIs, ``ctx.uniconn`` for the Uniconn
    device coordinator) before the body runs.
    """

    device: "Device"
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    allow_blocking: bool = False
    pending_cost: KernelCost = field(default_factory=KernelCost)
    attachments: dict = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        """Total thread blocks in the launch grid."""
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def threads_per_block(self) -> int:
        """Threads per block of the launch."""
        bx, by, bz = self.block
        return bx * by * bz

    def compute(self, cost: KernelCost) -> None:
        """Charge the roofline time of ``cost`` before the next statement
        (device-comm kernels): busy-time debt, like every determinate
        charge (``Engine.defer_busy``)."""
        if not self.allow_blocking:
            raise RuntimeError(
                "ctx.compute() requires a device-communication kernel "
                "(declare it with @device_kernel); compute-only kernels "
                "declare their cost at the KernelSpec level"
            )
        self.device.engine.defer_busy(self.device.kernel_time(cost))

    def charge(self, cost: KernelCost) -> None:
        """Accumulate cost to be paid when the kernel finishes."""
        self.pending_cost = self.pending_cost + cost

    def attach(self, name: str, obj: Any) -> None:
        """Expose an object to the kernel body as ctx.<name>."""
        self.attachments[name] = obj

    def __getattr__(self, name: str) -> Any:
        try:
            return self.__dict__["attachments"][name]
        except KeyError:
            raise AttributeError(name) from None


CostLike = Union[KernelCost, Callable[..., KernelCost], None]


@dataclass(frozen=True)
class KernelSpec:
    """A launchable kernel: body + declared cost + execution model."""

    fn: Callable[..., Any]
    name: str
    cost: CostLike = None
    uses_device_comm: bool = False

    def cost_of(self, ctx: DeviceCtx, args: Tuple[Any, ...]) -> KernelCost:
        """Resolve the declared cost (static or launch-time callable)."""
        if self.cost is None:
            return KernelCost()
        if callable(self.cost):
            return self.cost(ctx, *args)
        return self.cost


def kernel(name: Optional[str] = None, cost: CostLike = None) -> Callable:
    """Decorator: declare a compute-only kernel.

    ``cost`` is either a static :class:`KernelCost` or a callable
    ``(ctx, *launch_args) -> KernelCost`` evaluated at launch.
    """

    def wrap(fn: Callable[..., Any]) -> KernelSpec:
        return KernelSpec(fn=fn, name=name or fn.__name__, cost=cost)

    return wrap


def device_kernel(name: Optional[str] = None) -> Callable:
    """Decorator: declare a kernel that uses device-side communication."""

    def wrap(fn: Callable[..., Any]) -> KernelSpec:
        return KernelSpec(fn=fn, name=name or fn.__name__, uses_device_comm=True)

    return wrap
