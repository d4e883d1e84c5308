"""A generic all-arrive rendezvous used for out-of-band coordination.

Real libraries bootstrap through side channels (MPI for NCCL's unique id,
PMI for MPI itself, MPI for NVSHMEM). The simulated analogue is this
rendezvous: every participant deposits a payload under a shared key and
blocks until the expected number has arrived; all of them then observe the
full payload map. It is *control plane only* — no data-plane timing is
charged here; callers charge their own bootstrap costs.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable

from ..sim import Broadcast, Engine, wait_until

__all__ = ["RendezvousBoard"]


class _Entry:
    __slots__ = ("payloads", "bcast", "result")

    def __init__(self, engine: Engine):
        self.payloads: Dict[int, Any] = {}
        self.bcast = Broadcast(engine, "rendezvous")
        self.result: Any = None


class RendezvousBoard:
    """Shared coordination board; one per job, used by every backend."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._slots: Dict[Hashable, _Entry] = {}

    def _slot(self, key: Hashable) -> _Entry:
        slot = self._slots.get(key)
        if slot is None:
            slot = _Entry(self.engine)
            self._slots[key] = slot
        return slot

    def gather(self, key: Hashable, member: int, size: int, payload: Any = None) -> Dict[int, Any]:
        """Deposit ``payload`` and block until ``size`` members arrived.

        Returns the member->payload map. Every participant must use a unique
        ``member`` id and the same ``size``; the key must be unique per
        logical rendezvous (include a sequence number for repeated use).
        """
        self.engine.settle()  # arrive at the caller's own time
        slot = self._slot(key)
        slot.payloads[member] = payload
        if len(slot.payloads) >= size:
            # Only the completing arrival can make a waiter's predicate
            # true: one notify per rendezvous, not one per member.
            slot.bcast.notify_all()
        elif self.engine.sanitizer is not None:
            # Every arrival still happens-before every member proceeds.
            self.engine.sanitizer.release(slot.bcast)
        wait_until(slot.bcast, lambda: len(slot.payloads) >= size)
        return slot.payloads

    def close(self) -> None:
        """Drop every slot, with the payloads and results it holds; a
        result that owns a knot of its own (a Topology and its models) is
        closed first. Called by the owning world's ``close()``."""
        for slot in self._slots.values():
            close = getattr(slot.result, "close", None)
            if close is not None:
                close()
        self._slots.clear()

    def once(self, key: Hashable, factory) -> Any:
        """First caller computes ``factory()``; everyone sees the same value."""
        slot = self._slot(key)
        if slot.result is None:
            slot.result = factory()
        return slot.result
