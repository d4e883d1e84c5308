"""Nonblocking-operation requests (MPI_Request analogues)."""

from __future__ import annotations

from typing import Iterable, Optional

from ...sim import Engine, SimEvent

__all__ = ["Request", "waitall"]


class Request(SimEvent):
    """Handle for a pending nonblocking operation: the event that sets when
    it completes, named ``req:<name>`` in wait reasons. The matcher's two
    message records (``matching._SendRec``, ``_RecvRec``) are requests
    that pass no name: theirs is a property, formatted only when read.

    A request may complete *with an error* (e.g. message truncation is
    reported on the receive side, like MPI_ERR_TRUNC); the error is raised
    from ``wait()`` in the task that owns the request.
    """

    __slots__ = ("_error",)

    def __init__(self, engine: Engine, name: Optional[str] = None):
        super().__init__(engine, None if name is None else f"req:{name}")
        self._error: BaseException = None

    #: Mark the operation finished; wakes waiters.
    complete = SimEvent.set

    def fail(self, error: BaseException) -> None:
        """Complete the request erroneously; ``wait`` will raise ``error``."""
        self._error = error
        self.set()

    @property
    def done(self) -> bool:
        """True once the operation completed (possibly with error)."""
        return self.poll()

    def test(self) -> bool:
        """Nonblocking completion check (MPI_Test)."""
        return self.poll()

    def wait(self) -> None:
        """Block the calling task until the operation completes (MPI_Wait)."""
        super().wait()
        if self._error is not None:
            raise self._error


def waitall(requests: Iterable[Request]) -> None:
    """MPI_Waitall: block until every request completes.

    Multiple pending requests are waited with a single block (one wakeup
    at the last completion) instead of one block per request; the resume
    time is ``max`` of the completion times either way.
    """
    reqs = list(requests)
    # The raw state, not the settling `done` poll: what is pending gets
    # waited for, and a wait catches up with the caller's busy time itself.
    pending = [r for r in reqs if not r._set]
    if len(pending) > 1:
        engine = pending[0].engine
        task = engine._require_current()
        state = {"n": len(pending)}

        def one_done() -> None:
            state["n"] -= 1
            if state["n"] == 0:
                task.make_ready()

        for req in pending:
            req.on_set(one_done)
        engine.block("waitall")
    for req in reqs:
        req.wait()
