"""GPU events: the paper's timing methodology (Section VI-A2).

``GpuEvent.record(stream)`` enqueues a marker; its completion timestamp is
the virtual time at which every operation enqueued before it finished.
``elapsed(start, end)`` then reproduces ``cudaEventElapsedTime``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import GpuError
from .stream import Stream, TimedOp

__all__ = ["GpuEvent", "elapsed"]


class GpuEvent:
    """A CUDA/HIP-event analogue recording a point in stream order."""

    def __init__(self, device: "Device", name: str = "event"):
        self.device = device
        self.name = name
        self._op: Optional[TimedOp] = None

    def record(self, stream: Stream) -> "GpuEvent":
        """Enqueue the event marker on a stream (cudaEventRecord)."""
        op = TimedOp(stream.engine, f"event:{self.name}", duration=lambda: 0.0)
        stream.enqueue(op)
        self._op = op
        return self

    def synchronize(self) -> None:
        """Block the calling task until the recorded point is reached."""
        if self._op is None:
            raise GpuError(f"event {self.name}: synchronize before record")
        self._op.done.wait()

    @property
    def recorded(self) -> bool:
        """True once the marker completed in stream order."""
        return self._op is not None and self._op.done.poll()

    @property
    def time(self) -> float:
        """Virtual timestamp of the event (requires completion)."""
        if not self.recorded:
            raise GpuError(f"event {self.name}: not completed yet")
        return self._op.completed_at


def elapsed(start: GpuEvent, end: GpuEvent) -> float:
    """Seconds of virtual time between two completed events."""
    return end.time - start.time
