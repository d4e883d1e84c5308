"""GPU streams: FIFO queues of asynchronous operations on virtual time.

A stream executes its operations strictly in order, one at a time, exactly
like a CUDA/HIP stream. Host code enqueues operations without blocking (no
virtual time passes at enqueue), and ``synchronize()`` blocks the calling
simulated task until everything enqueued so far has completed.

Operation flavours:

- :class:`TimedOp` — runs for a duration known when it starts (kernels,
  memcpys); an optional action mutates simulated memory at completion time.
- :class:`ExternalOp` — completion is driven by another subsystem (a
  communication library's matching logic); the stream stays blocked until
  ``finish()`` is called, which is how NCCL's communication kernels occupy a
  stream until the peer arrives.
- :class:`TaskOp` — runs a Python function on its own simulated task; used
  for resident device kernels that block on device-side communication.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from ..errors import GpuError
from ..sim import Engine, SimEvent

__all__ = ["Stream", "StreamOp", "TimedOp", "ExternalOp", "TaskOp"]


class StreamOp:
    """Base class for one stream-ordered operation."""

    # Silent ops (capture boundary markers) ride the FIFO for ordering
    # only: no trace records, no enqueue/complete balance, no sanitizer
    # bookkeeping — a stream with silent ops behaves byte-identically to
    # one without them.
    silent = False

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.done = SimEvent(engine, name=f"op:{name}")
        self.completed_at: Optional[float] = None
        self.stream: Optional["Stream"] = None

    def start(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _complete(self) -> None:
        self.completed_at = self.engine.now
        self.done.set()
        # A completed op lets go of its stream (which may still name it as
        # ``_last``): nothing reads ``op.stream`` past this point.
        stream, self.stream = self.stream, None
        if stream is not None:
            stream._advance(self)


class TimedOp(StreamOp):
    """Completes after a duration computed when the op reaches stream head."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        duration: Callable[[], float],
        action: Optional[Callable[[], None]] = None,
    ):
        super().__init__(engine, name)
        self._duration = duration
        self._action = action

    def start(self) -> None:
        dur = self._duration()
        if dur < 0:
            raise GpuError(f"op {self.name}: negative duration {dur}")

        def complete() -> None:
            if self._action is not None and not (
                self.stream is not None and self.stream.aborted
            ):
                # An aborted stream's in-flight op still retires (timing),
                # but its memory effects are discarded — see Stream.abort.
                cap = self.engine.capture
                if cap is not None:
                    # Kernel/memcpy actions read live buffers, so the same
                    # closure replays value-exactly (never freshened).
                    cap.effect(("op", self.name), self._action)
                self._action()
            self._complete()

        self.engine.schedule(dur, complete)


class ExternalOp(StreamOp):
    """Completion driven externally (communication matching logic)."""

    def __init__(self, engine: Engine, name: str, on_start: Callable[["ExternalOp"], None]):
        super().__init__(engine, name)
        self._on_start = on_start
        self.started = False

    def start(self) -> None:
        self.started = True
        # Dropped once used: ``on_start`` closes over what it starts, which
        # as a rule ends up holding this op's ``finish``.
        on_start, self._on_start = self._on_start, None
        on_start(self)

    def finish(self, action: Optional[Callable[[], None]] = None) -> None:
        """Called by the owning subsystem when the operation completes."""
        if action is not None and not (
            self.stream is not None and self.stream.aborted
        ):
            cap = self.engine.capture
            if cap is not None:
                cap.effect(("xop", self.name), action)
            action()
        san = self.engine.sanitizer
        if san is not None and self.stream is not None:
            # The finisher may be a context that never ran on this stream (a
            # remote notifier's callback ending a signal wait): order it —
            # and through `done` whoever synchronizes on this op — after the
            # stream's earlier ops. (Timed and task ops complete in their
            # own context, which acquired the stream when they started.)
            san.acquire(self.stream)
        self._complete()


class TaskOp(StreamOp):
    """Runs ``fn`` on a dedicated simulated task (a resident GPU kernel)."""

    def __init__(self, engine: Engine, name: str, fn: Callable[[], Any]):
        super().__init__(engine, name)
        self._fn = fn
        self.result: Any = None

    def start(self) -> None:
        def body() -> None:
            self.result = self._fn()
            self._complete()

        self.engine.spawn(body, name=f"kernel:{self.name}")


class Stream:
    """One in-order execution queue on a device."""

    def __init__(self, device: "Device", name: Optional[str] = None):
        self.gpu_id: int = device.gpu_id  # not the device: it owns a stream
        self.engine: Engine = device.engine
        # Engine-scoped numbering: stream names (which appear in traces)
        # must not depend on how many simulations ran earlier in the
        # process, or traces stop being comparable run-to-run.
        self.name = name or f"stream{self.engine.next_seq('stream')}"
        self._queue: Deque[StreamOp] = deque()
        self._active: Optional[StreamOp] = None
        self._last: Optional[StreamOp] = None
        self.aborted = False

    # ------------------------------------------------------------------ #

    def enqueue(self, op: StreamOp) -> StreamOp:
        """Add an operation; starts immediately if the stream is idle.

        This is the one seam between host code and device timelines, so it
        is where a host running ahead of the clock (``Engine.defer_busy``)
        is put back on it: ``_last`` — what a later ``synchronize`` waits
        for — is recorded now, the enqueue itself happens when the
        caller's busy time has elapsed.
        """
        if self.aborted:
            raise GpuError(f"stream {self.name}: enqueue on an aborted stream")
        op.stream = self
        self._last = op
        self.engine.after_busy(lambda: self._enqueue(op))
        return op

    def _enqueue(self, op: StreamOp) -> None:
        if not op.silent:
            san = self.engine.sanitizer
            if san is not None:
                # Enqueue happens-before the op runs, even if it starts later.
                op._san_enq = san.snapshot_enqueue(op, self)
            cap = self.engine.capture
            if cap is not None:
                cap.n_enq += 1
            engine = self.engine
            if engine.trace_hook is not None:
                engine.trace_fields("stream.enqueue", {
                    "stream": self.name, "op": op.name, "gpu": self.gpu_id})
        if self._active is None:
            self._active = op
            self._start(op)
        else:
            self._queue.append(op)

    def _start(self, op: StreamOp) -> None:
        if op.silent:
            op.start()
            return
        engine = self.engine
        if engine.trace_hook is not None:
            engine.trace_fields("stream.start", {
                "stream": self.name, "op": op.name, "gpu": self.gpu_id})
        san = engine.sanitizer
        if san is None:
            op.start()
            return
        # Run the op under a context ordered after both its enqueue point
        # and the previous op on this stream (FIFO order).
        san.push_op(op, self)
        try:
            op.start()
        finally:
            san.pop()

    def _advance(self, finished: StreamOp) -> None:
        if finished is not self._active:
            raise GpuError(f"stream {self.name}: out-of-order completion of {finished.name}")
        if not finished.silent:
            cap = self.engine.capture
            if cap is not None:
                cap.n_comp += 1
            engine = self.engine
            if engine.trace_hook is not None:
                engine.trace_fields("stream.complete", {
                    "stream": self.name, "op": finished.name, "gpu": self.gpu_id})
            san = engine.sanitizer
            if san is not None:
                # FIFO chain: each op's completion context (which contains
                # its memory effects) happens-before the next op on this
                # stream. push_op acquires this in _start.
                san.release(self)
        if self.aborted:
            self._active = None
            return
        if self._queue:
            self._active = self._queue.popleft()
            self._start(self._active)
        else:
            self._active = None

    # ------------------------------------------------------------------ #

    def abort(self) -> None:
        """Abandon the stream after a communicator revocation.

        Queued ops are discarded (never started; their ``done`` events
        release so no one can hang on them), and the in-flight op — if any
        — still retires for timing purposes but its memory action is
        dropped. The elastic recovery path calls this on the failed
        generation's stream: symmetric buffers are reused across
        generations, so a late kernel completion from the abandoned stream
        must never write into state the survivors have already rebuilt.
        Idempotent. An aborted stream accepts no further work.
        """
        if self.aborted:
            return
        self.engine.settle()  # the caller's own pending enqueues land first
        self.aborted = True
        self.engine.trace("stream.abort", stream=self.name, gpu=self.gpu_id)
        dropped, self._queue = list(self._queue), deque()
        for op in dropped:
            op.done.set()

    def close(self) -> None:
        """Forget every op (``Device.close``, when the job is over): one
        that never completed — fenced by a revoke, deadlocked — points
        back at the stream that still names it."""
        self._queue.clear()
        self._active = self._last = None

    @property
    def idle(self) -> bool:
        self.engine.settle()  # an enqueue of the caller's may be pending
        return self._active is None

    def pending_ops(self) -> int:
        self.engine.settle()
        return (0 if self._active is None else 1) + len(self._queue)

    def synchronize(self) -> None:
        """Block the calling task until all currently enqueued ops complete."""
        last = self._last
        if last is not None:
            last.done.wait()

    def query(self) -> bool:
        """Non-blocking: true if the stream has no pending work.

        This is the simulated ``cudaStreamQuery`` whose cost the paper blames
        for Uniconn-over-MPI variability; the *time* cost is charged by the
        caller (backend profile), this just reports state.
        """
        return self.idle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stream {self.name} dev={self.gpu_id} pending={self.pending_ops()}>"
