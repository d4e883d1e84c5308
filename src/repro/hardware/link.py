"""Alpha-beta link and path models with occupancy (contention) tracking.

A transfer over a :class:`Link` costs ``per_message_overhead + nbytes /
bandwidth`` of link occupancy plus ``latency`` of propagation. Links remember
until when they are busy, so concurrent transfers over the same link
serialize — this is what makes the windowed OSU bandwidth benchmark
approach (but not exceed) link bandwidth, as on real hardware.

A :class:`Path` is an ordered sequence of links (e.g. source NIC -> fabric ->
destination NIC). Transfers on a path are modelled cut-through: the
propagation latencies add up, the bandwidth is set by the bottleneck link,
and every link on the path is occupied for its own serialization time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from ..errors import HardwareError

__all__ = ["Link", "Path", "Transfer"]


class Transfer(NamedTuple):
    """Resolved timing of one message over a link or path (immutable; a
    tuple, which costs half a frozen dataclass to make — one is made per
    reservation)."""

    start: float  # when the wire starts carrying the message
    inject_done: float  # when the *sender side* is free again
    delivered: float  # when the last byte arrives at the destination

    @property
    def duration(self) -> float:
        """End-to-end time of this transfer."""
        return self.delivered - self.start


@dataclass
class Link:
    """One directed physical channel."""

    name: str
    latency: float  # propagation seconds (alpha)
    bandwidth: float  # bytes/second (beta)
    per_message_overhead: float = 0.0  # per-message serialization cost
    busy_until: float = field(default=0.0, compare=False)
    # Injected fault windows, installed by repro.sim.faults: a sorted list
    # of (start, end, kind, factor) with kind "down" (link carries nothing,
    # transfers wait the window out) or "degrade" (serialization x factor).
    # None (the default) keeps reserve() on the fault-free fast path.
    fault_windows: Optional[List[Tuple[float, float, str, float]]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise HardwareError(f"link {self.name}: bandwidth must be positive")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise HardwareError(f"link {self.name}: negative timing parameter")

    def serialization_time(self, nbytes: int) -> float:
        """Time the wire is occupied by one message."""
        return self.per_message_overhead + nbytes / self.bandwidth

    def faulted_timing(self, start: float, nbytes: int) -> Tuple[float, float]:
        """(effective start, serialization time) under this link's fault
        windows: outage windows push the start out, the degradation window
        containing the start scales serialization."""
        ser = self.serialization_time(nbytes)
        factor = 1.0
        for win_start, win_end, kind, win_factor in self.fault_windows:
            if win_start <= start < win_end:
                if kind == "down":
                    start = win_end
                    factor = 1.0  # re-evaluate degradation at the new start
                elif win_factor > factor:
                    factor = win_factor
        return start, ser * factor

    def reserve(self, now: float, nbytes: int) -> Transfer:
        """Claim the link for one message starting no earlier than ``now``."""
        if nbytes < 0:
            raise HardwareError(f"negative message size {nbytes}")
        start = max(now, self.busy_until)
        if self.fault_windows is not None:
            start, ser = self.faulted_timing(start, nbytes)
        else:
            ser = self.serialization_time(nbytes)
        inject_done = start + ser
        self.busy_until = inject_done
        return Transfer(start, inject_done, inject_done + self.latency)


@dataclass
class Path:
    """An ordered chain of links between two GPUs."""

    links: List[Link]

    def __post_init__(self) -> None:
        if not self.links:
            raise HardwareError("a path needs at least one link")
        # Link parameters are immutable after construction (only busy_until
        # changes), so the aggregates are computed once — reserve() and the
        # rendezvous handshake hit these on every message.
        self._latency = sum(l.latency for l in self.links)
        self._bandwidth = min(l.bandwidth for l in self.links)
        self._name = "+".join(l.name for l in self.links)
        self.refresh_fault_check()

    def refresh_fault_check(self) -> None:
        """Re-read member links' fault windows (no windows = fast reserve).

        Called at construction and by the fault injector for paths cached
        before installation, so reserve() pays one boolean check when the
        path is healthy.
        """
        self._fault_check = any(l.fault_windows for l in self.links)

    @property
    def latency(self) -> float:
        return self._latency

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def name(self) -> str:
        return self._name

    def serialization_time(self, nbytes: int) -> float:
        """Time the wire is occupied by one message."""
        return max(l.serialization_time(nbytes) for l in self.links)

    def reserve(self, now: float, nbytes: int) -> Transfer:
        """Claim every link on the path for one cut-through message."""
        if nbytes < 0:
            raise HardwareError(f"negative message size {nbytes}")
        start = now
        for link in self.links:
            if link.busy_until > start:
                start = link.busy_until
        if self._fault_check:
            return self._reserve_faulted(start, nbytes)
        bottleneck = 0.0
        for link in self.links:
            ser = link.per_message_overhead + nbytes / link.bandwidth
            link.busy_until = start + ser
            if ser > bottleneck:
                bottleneck = ser
        inject_done = start + bottleneck
        return Transfer(start, inject_done, inject_done + self._latency)

    def _reserve_faulted(self, start: float, nbytes: int) -> Transfer:
        """Cut-through reservation honouring member links' fault windows:
        every outage window pushes the common start, the worst degradation
        sets the bottleneck serialization."""
        for link in self.links:
            if link.fault_windows is not None:
                link_start, _ = link.faulted_timing(start, nbytes)
                if link_start > start:
                    start = link_start
        bottleneck = 0.0
        for link in self.links:
            if link.fault_windows is not None:
                _, ser = link.faulted_timing(start, nbytes)
            else:
                ser = link.per_message_overhead + nbytes / link.bandwidth
            link.busy_until = start + ser
            if ser > bottleneck:
                bottleneck = ser
        inject_done = start + bottleneck
        return Transfer(start, inject_done, inject_done + self._latency)

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for one message (no reservation)."""
        return self.serialization_time(nbytes) + self.latency
