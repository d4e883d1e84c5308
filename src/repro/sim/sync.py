"""Synchronization primitives for simulated tasks.

All primitives are engine-aware: ``wait`` suspends the calling simulated
task (virtual time may pass), ``set``/``notify`` wake waiters in FIFO order
so the simulation stays deterministic.

Targeted-wakeup contract
------------------------

A ``Broadcast`` waiter may register a *predicate* with ``wait_for``.
``notify_all`` then only wakes the waiters whose predicate currently holds;
the rest stay registered, skipping the O(waiters) thundering herd of the
naive condition-variable pattern. Two rules keep this deterministic and
correct:

- **mutators must notify**: any state change that could make a registered
  predicate true must call ``notify_all`` on the broadcast guarding that
  state (this was already required by the ``wait_until`` re-check loop).
  A notify evaluates every predicate registered on its broadcast, so state
  that splits by owner should split its broadcasts the same way and
  notify *the owner whose state changed* — GPUSHMEM symmetric objects keep
  one broadcast per PE for this reason (``gpushmem/heap.py``);
- **predicates must be pure**: they read shared simulated state and return
  a bool, with no side effects — they can be evaluated any number of times
  at notify points without changing behaviour.

Registration is *persistent*: a waiter keeps its (FIFO) list position
across notifies until it actually proceeds, and removes itself then, so
simultaneously-satisfied waiters proceed in registration order. A woken
waiter still re-checks its predicate before proceeding (an earlier-woken
task may have consumed the state) and simply blocks again, in place, if it
no longer holds.

Busy-time debt: a task may run ahead of the clock (``Engine.defer_busy``),
and what it publishes must happen at its own time. So the publishing half
of every primitive (``set``, ``notify_all``, ``add``) and
``wait_until``, whose predicate could come out differently later, call
``Engine.settle`` first. Blocking halves need nothing: ``Engine.block``
catches up before it returns, and ``wait`` on a set event is monotone.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .engine import Engine, Task

__all__ = ["SimEvent", "Broadcast", "Counter", "wait_until"]


class SimEvent:
    """A one-shot event: once set, every past and future waiter proceeds."""

    __slots__ = ("engine", "_set", "_waiters", "_callbacks", "name", "_san_clock")

    def __init__(self, engine: Engine, name: str = "event"):
        self.engine = engine
        self.name = name
        self._set = False
        self._waiters: List[Task] = []
        self._callbacks: List[Callable[[], None]] = []

    def is_set(self) -> bool:
        """True once the event fired (the raw state; see :meth:`poll`)."""
        return self._set

    def poll(self) -> bool:
        """:meth:`is_set` for a caller that acts on "not yet": the event
        may fire within the caller's busy time, so that is settled first."""
        if not self._set:
            self.engine.settle()
        return self._set

    def set(self) -> None:
        if self._set:
            return
        engine = self.engine
        if engine._current is not None:  # a timer callback owes no debt
            engine.settle()
        san = engine.sanitizer
        if san is not None:
            san.release(self)
        self._set = True
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            task.make_ready()
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, []
            for cb in callbacks:
                cb()

    def wait(self) -> None:
        if not self._set:
            task = self.engine._require_current()
            self._waiters.append(task)
            self.engine.block(f"event:{self.name}")
        san = self.engine.sanitizer
        if san is not None:
            san.acquire(self)

    def on_set(self, callback: Callable[[], None]) -> None:
        """Fire ``callback`` once when the event sets (immediately if it
        already did). Callbacks run after waiting tasks are made ready."""
        if self._set:
            callback()
        else:
            self._callbacks.append(callback)


class _Waiter:
    """A registered waiter: a task to wake, or a callback to fire.

    ``predicate`` of None means "wake on any notify" (plain ``wait``).
    Exactly one of ``task``/``callback`` is set. ``done`` entries are
    skipped and dropped at the next notify sweep (waiters mark themselves
    done when they proceed, so their list position stays stable until
    then).
    A done entry holds nothing: that sweep may never come (the last
    notify of a rendezvous is the one its members proceed on), and the
    predicate's closure pins whatever the wait was about.
    """

    __slots__ = ("task", "predicate", "callback", "done")

    def __init__(
        self,
        task: Optional[Task],
        predicate: Optional[Callable[[], bool]],
        callback: Optional[Callable[[], None]] = None,
    ):
        self.task = task
        self.predicate = predicate
        self.callback = callback
        self.done = False


class Broadcast:
    """A multi-shot notification channel (condition variable without a lock).

    ``wait`` returns after the *next* ``notify_all``; ``wait_for`` only
    returns once its predicate holds (and is only woken then); ``watch``
    fires a callback — without waking any task — the first time a notify
    finds its predicate true.
    """

    __slots__ = ("engine", "_waiters", "name", "_san_clock")

    def __init__(self, engine: Engine, name: str = "broadcast"):
        self.engine = engine
        self.name = name
        self._waiters: List[_Waiter] = []

    def notify_all(self) -> None:
        """Wake the waiters whose wake condition can now hold.

        Only task waiters whose predicate is true are woken (FIFO order),
        and callback watchers whose predicate is true fired. Predicate
        waiters stay registered at their original position until they
        proceed (a woken-but-unsatisfied waiter blocks again in place).
        """
        engine = self.engine
        if engine._current is not None:
            engine.settle()
        san = engine.sanitizer
        if san is not None:
            san.release(self)
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        keep: List[_Waiter] = []
        for w in waiters:
            if w.done:
                continue
            if w.callback is not None:
                if w.predicate is None or w.predicate():
                    w.done = True
                    if san is not None:
                        # The callback acts for the waiter: order it after
                        # the release it just observed.
                        san.run_acquired(self, w.callback)
                    else:
                        w.callback()
                else:
                    keep.append(w)
            elif w.predicate is None:
                # Plain wait: one-shot, consumed by this notify.
                w.done = True
                w.task.make_ready()
            else:
                if w.predicate():
                    w.task.make_ready()
                keep.append(w)
        # Registrations made during callbacks land after the kept waiters.
        keep.extend(self._waiters)
        self._waiters = keep

    def wait(self) -> None:
        """Block until the next notify (unconditional)."""
        task = self.engine._require_current()
        self._waiters.append(_Waiter(task, None))
        self.engine.block(f"broadcast:{self.name}")
        san = self.engine.sanitizer
        if san is not None:
            san.acquire(self)

    def wait_for(self, predicate: Callable[[], bool]) -> None:
        """Block until ``predicate()`` is true at (or after) a notify.

        The registration persists across spurious wakeups — the waiter
        re-checks on every wake and only deregisters when the predicate
        finally holds, keeping its position in the waiter list stable.
        """
        task = self.engine._require_current()
        w = _Waiter(task, predicate)
        self._waiters.append(w)
        try:
            while True:
                self.engine.block(f"broadcast:{self.name}")
                if predicate():
                    san = self.engine.sanitizer
                    if san is not None:
                        san.acquire(self)
                    return
        finally:
            w.done = True
            w.task = w.predicate = None

    def watch(self, predicate: Callable[[], bool], callback: Callable[[], None]) -> None:
        """Fire ``callback`` once, at the first notify where the predicate
        holds — immediately if it already does. No task is woken."""
        if predicate():
            san = self.engine.sanitizer
            if san is not None:
                san.run_acquired(self, callback)
            else:
                callback()
            return
        self._waiters.append(_Waiter(None, predicate, callback))


def wait_until(
    broadcast: Broadcast,
    predicate: Callable[[], bool],
    timeout: Optional[float] = None,
    what: str = "",
) -> None:
    """Block the calling task until ``predicate()`` is true.

    The predicate is re-checked each time ``broadcast`` is notified; state
    changes that can satisfy waiters must notify the broadcast.

    With ``timeout`` (virtual seconds), a wait that outlives it raises
    :class:`~repro.errors.SimTimeoutError`; ``what`` names the wait in the
    error message. A timeout that never fires leaves no observable effect
    (the timer is cancelled), so timed and untimed waits that complete
    produce identical virtual timings.
    """
    broadcast.engine.settle()
    if predicate():
        san = broadcast.engine.sanitizer
        if san is not None:
            san.acquire(broadcast)
        return
    if timeout is None:
        broadcast.wait_for(predicate)
        return
    from ..errors import SimTimeoutError

    engine = broadcast.engine
    expired = [False]

    def expire() -> None:
        expired[0] = True
        broadcast.notify_all()

    timer = engine.schedule(timeout, expire)
    try:
        broadcast.wait_for(lambda: expired[0] or predicate())
    finally:
        timer.cancel()
    if expired[0] and not predicate():
        context = engine._fault_context()
        raise SimTimeoutError(
            f"{what or f'wait on {broadcast.name}'} timed out after {timeout:g}s "
            f"of virtual time at t={engine.now:.9g}s"
            + (f" (active {context})" if context else ""),
            when=engine.now,
        )


class Counter:
    """A monotonically updatable value tasks can wait on.

    This is the primitive behind GPUSHMEM signal waits
    (``signal_wait_until(addr, CMP, value)``).
    """

    __slots__ = ("engine", "_value", "_bcast")

    def __init__(self, engine: Engine, initial: int = 0, name: str = "counter"):
        self.engine = engine
        self._value = initial
        self._bcast = Broadcast(engine, name)

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    def set(self, value: int) -> None:
        self.engine.settle()
        self._value = value
        self._bcast.notify_all()

    def add(self, delta: int) -> None:
        """Adjust the value and wake waiters."""
        engine = self.engine
        if engine._current is not None:
            engine.settle()
        self._value += delta
        self._bcast.notify_all()

    def wait_for(
        self, predicate: Callable[[int], bool], timeout: Optional[float] = None
    ) -> int:
        """Block until the predicate holds for the value; returns it.

        ``timeout`` (virtual seconds) turns an unbounded wait into a
        :class:`~repro.errors.SimTimeoutError` — see :func:`wait_until`.
        """
        wait_until(self._bcast, lambda: predicate(self._value), timeout=timeout,
                   what=f"counter wait on {self._bcast.name}")
        return self._value

    def watch(self, predicate: Callable[[int], bool], callback: Callable[[], None]) -> None:
        """Fire ``callback`` once the predicate first holds for the value
        (immediately if it already does). No task is woken."""
        self._bcast.watch(lambda: predicate(self._value), callback)
