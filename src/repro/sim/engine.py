"""Deterministic discrete-event simulation engine.

Simulated processes ("tasks") run on real Python threads scheduled
*cooperatively*: exactly one task runs at any moment, and control is handed
off explicitly through per-thread handoff channels. A thread whose task has
finished parks on its engine and carries the next task spawned, so a
device-mode kernel launch costs a task, not a thread; ``Engine.run``
releases and joins every thread before it returns. Virtual time only
advances when every task is blocked, at which point the earliest pending
timer fires. Because the ready queue is FIFO and timers are
sequence-numbered, a given program produces the exact same interleaving and
the exact same virtual timings on every run.

The scheduler pays for a thread handoff only where one is needed: a task
whose wake-up already happened and which is next in the FIFO ready queue
resumes inline, with no handoff at all; any other resume is one
release/acquire of a raw lock. It also switches threads only where a task
must observe another task: a determinate host delay is kept as busy-time
debt on the caller instead of slept (:meth:`Engine.defer_busy`;
docs/MODEL.md section 7). None of this is visible in virtual time;
``Engine.stats`` counts what the scheduler did.

This is the substrate every other subsystem (GPU runtime, MPI, GPUCCL,
GPUSHMEM, Uniconn) is built on.
"""

from __future__ import annotations

import gc
import heapq
import threading
from collections import deque
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..errors import DeadlockError, EngineStateError, SimAborted, SimTimeoutError
from ..obs.metrics import MetricsRegistry

__all__ = ["Engine", "EngineStats", "Task", "Timer", "current_engine"]

# States of a Task.
_NEW = "new"
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"

_thread_local = threading.local()


def current_engine() -> "Engine":
    """Return the engine driving the calling simulated task."""
    eng = getattr(_thread_local, "engine", None)
    if eng is None:
        raise EngineStateError("not inside a simulated task")
    return eng


class EngineStats:
    """Host-side scheduler counters (virtual time never depends on these).

    - ``switches``: handoffs through a task's channel (each one costs a
      release/acquire pair and, when the target is another thread, two OS
      context switches);
    - ``inline_resumes``: blocks resolved without any handoff (the wake-up
      had already happened and the blocker was next in FIFO order);
    - ``timers_fired``: events of the virtual timeline: timers executed,
      plus host charges kept as debt instead of slept (``defer_busy``),
      minus the timers that only carry such a debt's effects — so the
      count does not depend on whether charges are deferred;
    - ``tasks_spawned``: simulated processes created (OS threads are
      recycled between them, so fewer are started);
    - ``wakeups``: ``make_ready`` transitions (how many times a task was
      moved to the ready queue — the thundering-herd indicator).
    """

    __slots__ = ("switches", "inline_resumes", "timers_fired", "tasks_spawned", "wakeups")

    def __init__(self) -> None:
        self.switches = 0
        self.inline_resumes = 0
        self.timers_fired = 0
        self.tasks_spawned = 0
        self.wakeups = 0

    def events(self) -> int:
        """Total scheduler events processed."""
        return self.switches + self.inline_resumes + self.timers_fired

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__} | {"events": self.events()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<EngineStats {body}>"


class Timer:
    """A cancellable callback scheduled at an absolute virtual time."""

    __slots__ = ("when", "callback", "cancelled", "cap")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self.callback = callback
        self.cancelled = False
        # Capture tag (parent entry, delay, order) — set by the graph
        # capture runtime when one is installed (see repro.sim.capture).
        self.cap = None

    def cancel(self) -> None:
        """Prevent the timer's callback from firing."""
        self.cancelled = True


class _Carrier:
    """One OS thread of an engine: it runs a task to its end, parks on the
    engine, and runs the next task :meth:`Engine.spawn` gives it — a
    simulated process costs a thread only while no parked one is free.

    The handoff channel belongs to the carrier (its current task borrows it
    as ``task._sem``): a parked carrier waits on it for its next task's
    first scheduling, or for :meth:`Engine.run` to let it go. It is a raw
    lock, held from the start and used in strict release/acquire
    alternation — a binary semaphore, and a C primitive.
    """

    __slots__ = ("engine", "channel", "task", "thread")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.channel = threading.Lock()
        self.channel.acquire()
        self.task: Optional["Task"] = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()

    def _main(self) -> None:
        _thread_local.engine = self.engine
        while True:
            self.channel.acquire()  # the task's first scheduling, or the release
            task = self.task
            if task is None:
                return
            self.thread.name = task.name
            task._main()


class Task:
    """One simulated process, run cooperatively on a carrier thread."""

    def __init__(self, engine: "Engine", fn: Callable[[], Any], name: str,
                 carrier: _Carrier):
        self.engine = engine
        self.fn = fn
        self.name = name
        self.state = _NEW
        self.poisoned = False
        # Error to raise in this task the next time it resumes from a block
        # (the engine-watchdog delivery channel; see Engine.block).
        self._pending_error: Optional[BaseException] = None
        self.result: Any = None
        self.wait_reason: str = ""
        # Busy-time debt (see Engine.defer_busy): the virtual time this
        # task's host is committed through but has not yet slept off.
        self.busy_until: float = 0.0
        # The carrier's channel and thread id, copied: block() and
        # _require_current() read them on every handoff.
        self._carrier = carrier
        self._sem = carrier.channel
        self._ident = carrier.thread.ident
        self._finish_waiters: List["Task"] = []
        carrier.task = self

    # ------------------------------------------------------------------ #

    def _main(self) -> None:
        try:
            if self.poisoned:
                raise SimAborted(self.name)
            self.state = _RUNNING
            self.result = self.fn()
            # The task finishes (and releases joiners) at the same virtual
            # time as if every charge had been slept eagerly.
            self.engine.settle()
        except SimAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - must capture everything
            self.engine._record_failure(exc)
        finally:
            self.engine._finish_task(self)

    def make_ready(self) -> None:
        """Move a blocked/new task to the ready queue (idempotent)."""
        if self.state in (_BLOCKED, _NEW):
            self.state = _READY
            self.wait_reason = ""
            self.engine.stats.wakeups += 1
            self.engine._ready.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.state}>"


class Engine:
    """The virtual clock plus the cooperative task scheduler."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._defer = False  # decided by run()
        self.stats = EngineStats()
        self._heap: List[tuple] = []  # (when, seq, Timer)
        self._seq = 0
        self._ready: deque = deque()
        self._tasks: set = set()
        self._parked: List[_Carrier] = []  # carriers whose task has finished
        self._current: Optional[Task] = None
        self._done_sem = threading.Semaphore(0)
        self._failure: Optional[BaseException] = None
        self._running = False
        self._finished = False
        self._name_seqs: Dict[Hashable, int] = {}
        self.trace_hook: Optional[Callable[..., None]] = None
        # Observability (repro.obs). Metrics are host-side accumulators —
        # updating them never touches virtual time. Spans are begin/end
        # trace records and stay off unless a run opts in (launch(obs=
        # "spans")), preserving trace byte-identity at the default level.
        self.metrics = MetricsRegistry()
        self.obs_spans = False
        # Fault-injection hooks (see repro.sim.faults). Both default to the
        # disabled state so the fault layer costs one attribute check when
        # no plan is installed.
        self.fault_injector: Optional[Any] = None
        self.watchdog_timeout: Optional[float] = None
        # Data-plane fence (see Communicator.revoke): deferred delivery
        # callbacks capture this counter at issue time and drop themselves
        # when it has advanced — a revocation tears down every in-flight
        # transfer, so stale payloads can never land in buffers the next
        # communicator generation has already rebuilt. Stays 0 (and every
        # comparison trivially equal) unless a revoke happens.
        self.fence_epoch: int = 0
        # Happens-before sanitizer (see repro.sanitize). None means off: every
        # hook is one attribute check and the event schedule — hence the
        # trace — is byte-identical to an uninstrumented run.
        self.sanitizer: Optional[Any] = None
        # Collective algorithm policy (see repro.coll). None means no
        # engine installed: backends pay one attribute check and stay on
        # their legacy code paths, so default traces are byte-identical.
        self.coll: Optional[Any] = None
        # Graph capture & replay runtime (see repro.sim.capture). None —
        # the default — keeps every hook at one attribute check, so
        # uncaptured runs schedule and trace exactly as before.
        self.capture: Optional[Any] = None
        # Components holding *absolute* virtual-time state (message queues
        # with arrival times, link occupancy) register a shifter here; a
        # replay takeover calls each with the span the clock jumped so that
        # stale anchors land where a live run would have put them.
        self.time_shift_hooks: List[Callable[[float], None]] = []

    # ------------------------------------------------------------------ #
    # Public API used by simulated code.
    # ------------------------------------------------------------------ #

    def fence(self) -> int:
        """Invalidate every in-flight data-plane delivery.

        Bumped by communicator revocation: backends snapshot ``fence_epoch``
        when they schedule a deferred payload write (one-sided put/get
        delivery, wire delivery, collective completion) and drop the write
        if the epoch moved on — the simulated analogue of connection
        teardown on revoke. Returns the new epoch.
        """
        self.fence_epoch += 1
        if self.capture is not None:
            # Teardown invalidates in-flight structure; replaying across a
            # revocation could resurrect deliveries the fence dropped.
            self.capture.disable("revoke")
        return self.fence_epoch

    def spawn(self, fn: Callable[[], Any], name: str = "task") -> Task:
        """Create a simulated process. It becomes runnable immediately."""
        if self._finished:
            raise EngineStateError("engine already finished")
        self.settle()
        parked = self._parked
        task = Task(self, fn, name, parked.pop() if parked else _Carrier(self))
        if self.sanitizer is not None:
            self.sanitizer.on_spawn(task)
        if self.capture is not None:
            self.capture.n_spawn += 1
        self._tasks.add(task)
        self.stats.tasks_spawned += 1
        task.make_ready()
        return task

    def run(self) -> None:
        """Drive the simulation to completion (called from the host thread).

        Returns when every task has finished; re-raises the first failure
        raised inside any task (including deadlock detection). Automatic
        garbage collection is paused for the duration and the caller's
        setting restored on every way out.
        """
        if self._running or self._finished:
            raise EngineStateError("engine can only be run once")
        self._running = True
        # defer_busy defers unless an instrument observes timer structure
        # or can cut a task off between a charge and its effect. Decided
        # once: all install before run(). (The sanitizer settles at each
        # access and trace records stamp the caller's own time, so neither
        # needs the charge slept.)
        self._defer = (
            self.capture is None
            and self.fault_injector is None
            and self.watchdog_timeout is None
        )
        # The cyclic collector sleeps while the engine runs: the simulator
        # frees by reference count (docs/MODEL.md section 7, "Memory: who
        # frees what"), so a collection would walk every rank's live tasks,
        # buffers and closures to find nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            if self._tasks:
                self._dispatch_next()
                self._done_sem.acquire()
        finally:
            if collecting:
                gc.enable()
            self._finished = True
            self._running = False
            # Every task has finished, so every carrier is parked: let them
            # go, whatever the outcome — no thread outlives the run. (All
            # released, then all joined: they exit back to back, not one
            # handoff each.) With them goes what could point back at this
            # engine: timers that never fired, the hooks.
            parked, self._parked = self._parked, []
            for carrier in parked:
                carrier.channel.release()
            for carrier in parked:
                carrier.thread.join()
            self._heap.clear()
            self._ready.clear()
            self.time_shift_hooks.clear()
        failure, self._failure = self._failure, None
        if failure is not None:
            try:
                raise failure
            finally:
                del failure  # or this frame, in its traceback, would pin it

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        task = self._current
        if task is not None and task.busy_until > self._now:
            self.settle()  # `delay` counts from the caller's own time
        if self.sanitizer is not None:
            callback = self.sanitizer.wrap_callback(callback)
        timer = Timer(self._now + delay, callback)
        if self.capture is not None:
            self.capture.on_schedule(timer, delay)
        self._seq += 1
        heapq.heappush(self._heap, (timer.when, self._seq, timer))
        return timer

    def _at_busy_end(self, task: Task, callback: Callable[[], None],
                     extra: float = 0.0) -> None:
        """Timer ``extra`` past the end of ``task``'s busy time: an absolute
        time, the same sum the clock of a sleeping task would reach. It
        carries what the task's charges deferred and is no timeline event
        of its own (each charge was counted when made), so ``timers_fired``
        is compensated in advance."""
        when = task.busy_until + extra
        delay = when - self._now
        if self.capture is not None:
            # Replay re-times a timer as its parent's fire time + delay,
            # so under capture `when` must be exactly that sum.
            delay = extra + (task.busy_until - self._now)
            when = self._now + delay
        self.stats.timers_fired -= 1
        # schedule()'s tail, at an absolute time (kept apart: that one is
        # the per-timer hot path).
        if self.sanitizer is not None:
            callback = self.sanitizer.wrap_callback(callback)
        timer = Timer(when, callback)
        if self.capture is not None:
            self.capture.on_schedule(timer, delay)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, timer))

    def sleep(self, duration: float) -> None:
        """Block the calling task for ``duration`` seconds of virtual time.

        Busy-time debt (see :meth:`defer_busy`) comes first: the sleep
        starts where the debt ends, as if each charge had been slept.
        """
        task = self._require_current()
        if duration >= 0 and task.busy_until > self._now:
            self.stats.timers_fired += 1  # the sleep's own end, which the timer carries
            self._at_busy_end(task, task.make_ready, duration)
        else:
            self.schedule(duration, task.make_ready)
        self.block(f"sleep({duration:g})", watchdog=False)

    def defer_busy(self, seconds: float) -> None:
        """Charge the calling task ``seconds`` of host time whose end is
        known now (a call overhead, a dispatch cost).

        The charge becomes *debt*: ``task.busy_until`` moves, nobody blocks,
        and the task runs on ahead of the clock. What it then does for the
        outside world goes through :meth:`after_busy`, at the exact instant
        a sleeping task would have done it, and it never sees a clock
        earlier than its own busy time: ``block`` catches up before
        returning, and :attr:`now`, :meth:`schedule`, :meth:`spawn`, every
        publishing sync primitive and nonblocking poll :meth:`settle` first
        (docs/MODEL.md section 7 has the full argument). Under capture, a
        fault injector or a watchdog (see :meth:`run`), the charge is slept.
        """
        if seconds <= 0:
            return
        if self._defer:
            # _require_current and _charge, inlined: one charge per host
            # call overhead makes this the engine's hottest entry.
            task = self._current
            if task is None or threading.get_ident() != task._ident:
                raise EngineStateError("blocking call outside a simulated task")
            now = self._now
            task.busy_until = (task.busy_until if task.busy_until > now else now) + seconds
            self.stats.timers_fired += 1
        else:
            self.sleep(seconds)

    def after_busy(self, callback: Callable[[], None], seconds: float = 0.0) -> None:
        """Charge the calling task ``seconds`` more, then run ``callback``
        when its busy time has elapsed — right now if it owes none, or if
        the caller is itself a timer callback (which no task's debt binds).
        Told the effect, the engine defers this charge under every
        instrument (the timer is an ordinary one).
        """
        task = self._current
        if task is not None:
            if seconds > 0:
                self._charge(task, seconds)
            if task.busy_until > self._now:
                self._at_busy_end(task, callback)
                return
        callback()

    def _charge(self, task: Task, seconds: float) -> None:
        start = task.busy_until if task.busy_until > self._now else self._now
        task.busy_until = start + seconds
        # The end of a charge is one event of the virtual timeline whether
        # or not a timer fires for it: `timers_fired` is the same count
        # when an instrument makes defer_busy sleep.
        self.stats.timers_fired += 1

    def settle(self) -> None:
        """Block the calling task until its busy-time debt has elapsed.
        No-op without debt and from timer callbacks."""
        task = self._current
        if task is not None and task.busy_until > self._now:
            self._at_busy_end(task, task.make_ready)
            self.block("busy", watchdog=False)

    @property
    def now(self) -> float:
        """Current virtual time, as the caller is entitled to see it: a
        task in debt settles first (engine internals read ``_now``)."""
        task = self._current
        if task is not None and task.busy_until > self._now:
            self.settle()
        return self._now

    def block(self, reason: str = "", *, watchdog: bool = True) -> None:
        """Suspend the calling task until someone calls ``make_ready`` on it.

        The caller must have already arranged its own wake-up (a timer, a
        registration on a sync object, ...). If the wake-up already happened
        synchronously the task is in the ready queue and will simply resume.
        A task whose wake-up has happened by the time the scheduler selects
        it — and which is next in FIFO order — resumes *inline*, with no
        handoff at all (a "switchless" event).

        When a watchdog timeout is installed (``watchdog_timeout``), a block
        that outlives it raises :class:`SimTimeoutError` in the blocked task,
        carrying the deadlock-style waiter report — a hang under injected
        faults becomes an actionable per-task error instead of waiting for
        whole-simulation quiescence. Determinate waits pass
        ``watchdog=False``: a :meth:`sleep` ends at a known virtual time by
        construction, so it can never hang and must not trip a watchdog
        shorter than a modeled (healthy) delay.
        """
        task = self._require_current()
        wd_timer = None
        if watchdog and self.watchdog_timeout is not None:
            wd_timer = self.schedule(
                self.watchdog_timeout, lambda: self._watchdog_expire(task)
            )
        while True:
            if task.state is _RUNNING:
                task.state = _BLOCKED
                task.wait_reason = reason
            nxt = self._select_next()
            if nxt is task:
                if task.poisoned:
                    raise SimAborted(task.name)
                self.stats.inline_resumes += 1
                task.state = _RUNNING
            else:
                if nxt is not None:
                    self.stats.switches += 1
                    nxt._sem.release()
                task._sem.acquire()
                if task.poisoned:
                    raise SimAborted(task.name)
                task.state = _RUNNING
            if task.busy_until > self._now:
                # Woken before its busy time elapsed: the task may not
                # observe the clock until the debt is settled.
                self._at_busy_end(task, task.make_ready)
                continue
            if wd_timer is not None:
                wd_timer.cancel()
                if task._pending_error is not None:
                    error, task._pending_error = task._pending_error, None
                    try:
                        raise error
                    finally:
                        del error  # or this frame would pin its own traceback
            return

    def join(self, other: Task) -> Any:
        """Block until ``other`` finishes; return its result."""
        if other.state is not _DONE:
            other._finish_waiters.append(self._require_current())
            self.block(f"join({other.name})")
        if self.sanitizer is not None:
            self.sanitizer.on_join(other)
        return other.result

    @property
    def current_task(self) -> Optional[Task]:
        """The task currently holding the run token (None at startup)."""
        return self._current

    def trace(self, kind: str, **fields: Any) -> None:
        """Emit a trace record if a hook is installed, stamped with the
        caller's own time: a task in debt is not settled, its record reads
        ``busy_until`` — the clock it would see had it slept each charge."""
        if self.trace_hook is not None:
            self.trace_fields(kind, fields)

    def trace_fields(self, kind: str, fields: Dict[str, Any]) -> None:
        """``trace`` for a caller holding the record's fields in a dict of
        its own making, which the hook keeps as the record's: the hook is
        called ``trace_hook(kind, t, fields)`` (a :class:`Tracer` installs
        one) and must be installed."""
        task = self._current
        t = self._now
        if task is not None and task.busy_until > t:
            t = task.busy_until
        self.trace_hook(kind, t, fields)
        if self.capture is not None:
            self.capture.on_record(kind, fields)

    def next_seq(self, kind: Hashable) -> int:
        """Monotonic per-kind sequence numbers, scoped to this engine.

        Use these (not module globals) for generated names that can end up
        in traces, so identical simulations name things identically no
        matter how many ran earlier in the process.
        """
        n = self._name_seqs.get(kind, 0) + 1
        self._name_seqs[kind] = n
        return n

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def _require_current(self) -> Task:
        task = self._current
        if task is None or threading.get_ident() != task._ident:
            raise EngineStateError("blocking call outside a simulated task")
        return task

    def _record_failure(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc

    def _finish_task(self, task: Task) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_finish_task(task)
        task.state = _DONE
        self._tasks.discard(task)
        for waiter in task._finish_waiters:
            waiter.make_ready()
        task._finish_waiters.clear()
        task.fn = None  # whoever still holds the task does not hold its closure
        # Park before the handoff: past it this thread owns nothing but
        # its own channel.
        task._carrier.task = None
        self._parked.append(task._carrier)
        self._dispatch_next()

    def _dispatch_next(self) -> None:
        """Hand control to the next runnable task, advancing time if needed.

        Runs in the context of the task that is finishing (or the host
        thread at start-up). Exactly one task is released.
        """
        nxt = self._select_next()
        if nxt is not None:
            self.stats.switches += 1
            nxt._sem.release()

    def _select_next(self) -> Optional[Task]:
        """Pick the next runnable task, advancing virtual time if needed.

        Sets ``_current`` to the chosen task and returns it *without*
        releasing its channel (the caller decides between a handoff and an
        inline resume). Returns None only when the whole simulation is
        finished, after releasing the host thread.
        """
        if self._failure is not None:
            return self._drain_select()
        ready = self._ready
        heap = self._heap
        stats = self.stats
        try:
            while True:
                if ready:
                    nxt = ready.popleft()
                    self._current = nxt
                    return nxt
                # Callbacks run for no task: whoever is firing them is
                # blocked. (Every way out of this function assigns _current
                # again.)
                self._current = None
                fired = False
                while heap and not fired:
                    when, _, timer = heapq.heappop(heap)
                    if timer.cancelled:
                        continue
                    if when > self._now:
                        self._now = when
                    cap = self.capture
                    if cap is not None:
                        cap.on_fire(timer)
                        timer.callback()
                        cap.on_fired()
                    else:
                        timer.callback()
                    stats.timers_fired += 1
                    fired = True
                if fired:
                    continue
                # No runnable task and no future event.
                if self._tasks:
                    self._record_failure(DeadlockError(self._waiter_report(), when=self._now))
                    return self._drain_select()
                self._done_sem.release()
                return None
        except BaseException as exc:  # noqa: BLE001 - a callback's error is the run's
            # A timer callback raised. It acts for no task, so the error is
            # the run's failure: the tasks unwind as after a task failure,
            # and Engine.run re-raises it — never the task that happened to
            # be firing timers.
            self._record_failure(exc)
            return self._drain_select()

    def _drain_select(self) -> Optional[Task]:
        """After a failure: pick the next remaining task to unwind."""
        for task in list(self._tasks):
            if task.state in (_BLOCKED, _NEW, _READY):
                task.poisoned = True
                self._current = task
                return task
        self._current = None
        self._done_sem.release()
        return None

    def _fault_context(self) -> str:
        """One provenance line ("fault spec '...' seed=N") when an injector
        is installed, else "" — appended to hang reports so a failure found
        by a chaos sweep is replayable from the error text alone."""
        injector = self.fault_injector
        describe = getattr(injector, "describe", None)
        return describe() if describe is not None else ""

    def _waiter_report(self) -> str:
        """One line per live task: its name and pending operation.

        Wait reasons carry the operation and message tag where the blocking
        primitive recorded them (e.g. ``event:req:recv[1->0 tag=0]``), so
        both deadlock and watchdog-timeout reports name the stuck transfer.
        Under fault injection the active spec and seed are appended.
        """
        lines = []
        for task in sorted(self._tasks, key=lambda t: t.name):
            lines.append(f"  {task.name}: blocked on {task.wait_reason or '<unknown>'}")
        context = self._fault_context()
        if context:
            lines.append(f"  active {context}")
        return "\n".join(lines)

    def _watchdog_expire(self, task: Task) -> None:
        """Fire a watchdog for one block: deliver SimTimeoutError to the task.

        A task that already resumed (its block cancelled this timer, or it
        sits in the ready queue with its wake-up done) is left alone.
        """
        if task.state is not _BLOCKED or task._pending_error is not None:
            return
        report = self._waiter_report()
        task._pending_error = SimTimeoutError(
            f"blocking wait exceeded watchdog timeout "
            f"{self.watchdog_timeout:g}s at t={self._now:.9g}s: {task.name} "
            f"waiting on {task.wait_reason or '<unknown>'}\n{report}",
            report=report,
            when=self._now,
        )
        self.trace("fault.watchdog", task=task.name, reason=task.wait_reason)
        task.make_ready()
