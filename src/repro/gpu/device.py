"""A simulated GPU device: memory allocation, streams, kernel launches."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GpuError
from ..hardware.cluster import Cluster
from ..hardware.gpu import GpuModel, KernelCost
from ..sim import Engine
from .buffer import DeviceBuffer
from .kernel import DeviceCtx, KernelSpec
from .stream import Stream, TaskOp, TimedOp

__all__ = ["Device", "Dim3", "dim3"]

Dim3 = Tuple[int, int, int]


def dim3(x: int = 1, y: int = 1, z: int = 1) -> Dim3:
    """CUDA-style launch dimensions."""
    if min(x, y, z) < 1:
        raise GpuError(f"invalid dim3 ({x},{y},{z})")
    return (x, y, z)


def _volume(d: Union[int, Sequence[int]]) -> int:
    if isinstance(d, int):
        return d
    out = 1
    for v in d:
        out *= int(v)
    return out


class Device:
    """One GPU of the cluster, as seen by the rank that selected it."""

    def __init__(self, engine: Engine, cluster: Cluster, gpu_id: int):
        cluster.check_gpu(gpu_id)
        self.engine = engine
        self.cluster = cluster
        self.gpu_id = gpu_id
        self.model: GpuModel = cluster.machine.gpu
        self.allocated_bytes = 0
        # Straggler factor from the fault injector (repro.sim.faults): all
        # kernel/launch times on this device are multiplied by it. 1.0 for
        # healthy GPUs, and the scaling below is guarded by `!= 1.0` so
        # fault-free runs stay bitwise identical.
        self.time_scale = 1.0
        injector = getattr(engine, "fault_injector", None)
        if injector is not None:
            self.time_scale = injector.straggler_factor(gpu_id)
        self._streams: List[Stream] = []  # every stream of this device, for close()
        # (allocation, offset, length) -> the one view of that slice
        # (DeviceBuffer.offset); a view points at its root, so close() and
        # free() empty it.
        self._views: Dict[Tuple[DeviceBuffer, int, int], DeviceBuffer] = {}
        self.default_stream = self.create_stream(f"default[{gpu_id}]")

    def kernel_time(self, cost) -> float:
        """Roofline time of a cost on *this* device (straggler-scaled)."""
        t = self.model.kernel_time(cost)
        if self.time_scale != 1.0:
            t *= self.time_scale
        return t

    def launch_time(self, cost) -> float:
        """Launch overhead + roofline time on this device (straggler-scaled)."""
        t = self.model.launch_time(cost)
        if self.time_scale != 1.0:
            t *= self.time_scale
        return t

    # ------------------------------------------------------------------ #
    # Memory.
    # ------------------------------------------------------------------ #

    def malloc(self, count: int, dtype=np.float32) -> DeviceBuffer:
        """Allocate ``count`` elements of device memory (cudaMalloc)."""
        if count < 0:
            raise GpuError(f"negative allocation size {count}")
        nbytes = int(count) * np.dtype(dtype).itemsize
        if self.allocated_bytes + nbytes > self.model.memory_bytes:
            raise GpuError(
                f"gpu{self.gpu_id}: out of memory "
                f"({self.allocated_bytes + nbytes} > {self.model.memory_bytes})"
            )
        self.allocated_bytes += nbytes
        return DeviceBuffer(self, np.zeros(int(count), dtype=dtype))

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer allocated by :meth:`malloc` (root buffers only)."""
        if buf._root is not None:
            raise GpuError("cannot free a buffer view; free the root allocation")
        if buf.freed:
            raise GpuError("double free of device buffer")
        san = self.engine.sanitizer
        if san is not None:
            # In-flight transfers that later touch this buffer conflict
            # with the free record (use-after-free with attribution).
            san.record_free(buf)
        buf.freed = True
        self.allocated_bytes -= buf.nbytes
        for where in [w for w in self._views if w[0] is buf]:
            del self._views[where]

    # ------------------------------------------------------------------ #
    # Streams & data movement.
    # ------------------------------------------------------------------ #

    def create_stream(self, name: Optional[str] = None) -> Stream:
        """Create a new independent in-order stream on this device."""
        stream = Stream(self, name)
        self._streams.append(stream)
        return stream

    def close(self) -> None:
        """Close every stream of the finished job and drop its buffer views
        (``Job.close``)."""
        for stream in self._streams:
            stream.close()
        self._views.clear()

    def memcpy_h2d(self, dst: DeviceBuffer, src: np.ndarray, stream: Optional[Stream] = None) -> None:
        """Asynchronous host-to-device copy on a stream."""
        self._memcpy(dst, np.asarray(src), stream, "h2d")

    def memcpy_d2h(self, dst: np.ndarray, src: DeviceBuffer, stream: Optional[Stream] = None) -> None:
        """Asynchronous device-to-host copy on a stream."""
        self._memcpy(dst, src, stream, "d2h")

    def _memcpy(self, dst, src, stream: Optional[Stream], kind: str) -> None:
        stream = stream or self.default_stream
        nbytes = src.nbytes if kind == "h2d" else src.nbytes

        def action() -> None:
            if kind == "h2d":
                dst.write(src)
            else:
                n = min(dst.size, src.size)
                san = self.engine.sanitizer
                if san is not None:
                    san.record(src, "r", 0, n)
                dst.reshape(-1)[:n] = src.raw[:n]

        dur = self.model.memcpy_overhead + nbytes / self.model.pcie_bandwidth
        stream.enqueue(TimedOp(self.engine, f"memcpy-{kind}", lambda: dur, action))

    # ------------------------------------------------------------------ #
    # Kernel launches.
    # ------------------------------------------------------------------ #

    def launch(
        self,
        kernel: KernelSpec,
        grid: Union[int, Dim3],
        block: Union[int, Dim3],
        args: Sequence[Any] = (),
        stream: Optional[Stream] = None,
        cooperative: bool = False,
    ) -> None:
        """Launch a kernel asynchronously on ``stream``.

        Compute-only kernels (no device communication) run as a single timed
        op; kernels that use device-side APIs run on their own simulated
        task so they can block (see :class:`~repro.gpu.kernel.KernelSpec`).
        ``cooperative=True`` enforces the cooperative-launch grid limit that
        restricts GPUSHMEM's ``collective_launch`` (paper Section II-B).
        """
        n_blocks = _volume(grid)
        threads_per_block = _volume(block)
        if threads_per_block < 1 or threads_per_block > 1024:
            raise GpuError(f"invalid block size {threads_per_block}")
        if cooperative and n_blocks > self.model.max_coop_blocks:
            raise GpuError(
                f"cooperative launch of {n_blocks} blocks exceeds device "
                f"limit {self.model.max_coop_blocks} (no preemptive scheduling)"
            )
        stream = stream or self.default_stream
        ctx = DeviceCtx(
            device=self,
            grid=grid if not isinstance(grid, int) else dim3(grid),
            block=block if not isinstance(block, int) else dim3(block),
            allow_blocking=kernel.uses_device_comm,
        )

        if kernel.uses_device_comm:
            def body() -> Any:
                self.engine.defer_busy(self.model.launch_overhead)
                san = self.engine.sanitizer
                try:
                    if san is not None:
                        with san.kernel_scope(kernel.name):
                            result = kernel.fn(ctx, *args)
                    else:
                        result = kernel.fn(ctx, *args)
                finally:
                    # The device-API handles attached for this launch point
                    # back at the context: the body's return unties them.
                    ctx.attachments.clear()
                if ctx.pending_cost.bytes_moved or ctx.pending_cost.flops:
                    self.engine.defer_busy(self.kernel_time(ctx.pending_cost))
                return result

            stream.enqueue(TaskOp(self.engine, kernel.name, body))
        else:
            def action() -> None:
                san = self.engine.sanitizer
                if san is not None:
                    with san.kernel_scope(kernel.name):
                        kernel.fn(ctx, *args)
                else:
                    kernel.fn(ctx, *args)

            def duration() -> float:
                return self.launch_time(kernel.cost_of(ctx, args))

            stream.enqueue(TimedOp(self.engine, kernel.name, duration, action))

    def synchronize(self) -> None:
        """cudaDeviceSynchronize on the default stream."""
        self.default_stream.synchronize()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device gpu{self.gpu_id} ({self.model.name})>"
