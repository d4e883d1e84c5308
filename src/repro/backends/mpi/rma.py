"""MPI-3 one-sided communication (RMA windows).

The paper notes that GPU-aware MPI has a mature one-sided API and leaves
using it for Uniconn's P2P as future work (Section V-A); this module
implements that substrate:

- ``MpiWindow`` — collective window creation over a communicator exposing a
  device buffer to one-sided access;
- ``put`` / ``get`` / ``accumulate`` — nonblocking one-sided operations,
  GPU-to-GPU over the same network paths as two-sided traffic;
- ``fence`` — active-target epoch boundary (completes all operations, then
  synchronizes the group);
- ``lock`` / ``unlock`` / ``flush`` — passive-target access with exclusive
  locks per (window, target).

Completion semantics follow MPI: an operation is only guaranteed complete
at the next synchronization (fence/flush/unlock), and per-target ordering
of accumulates matches arrival order on the (FIFO) network path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ...errors import MpiError
from ...obs import size_class
from ...sim import Broadcast, Counter, wait_until
from ..common import BufferLike, InFlight, storage

__all__ = ["MpiWindow"]


class _WinShared:
    """Cross-rank state of one window."""

    def __init__(self, engine, size: int):
        self.engine = engine
        self.size = size
        self.exposed: Dict[int, BufferLike] = {}  # comm rank -> buffer
        self.updated = Broadcast(engine, "win")
        self.locks: Dict[int, Optional[int]] = {}  # target -> holder rank
        self.lock_bcast = Broadcast(engine, "win-lock")


class MpiWindow:
    """One rank's handle on an RMA window (MPI_Win)."""

    def __init__(self, comm, buf: BufferLike, count: int):
        """MPI_Win_create: collective over every member of ``comm``."""
        storage(buf, count)  # validates
        self.comm = comm
        self.ctx = comm.ctx
        self.engine = comm.engine
        self.buf = buf
        self.count = count
        comm._coll_seq += 1
        key = ("mpi_win", comm.comm_id, comm._coll_seq)
        self.shared: _WinShared = self.ctx.world.board.once(
            key, lambda: _WinShared(self.engine, comm.size)
        )
        self.shared.exposed[comm.rank] = buf
        # Window creation synchronizes (like MPI_Win_create).
        self.ctx.world.board.gather((key, "sync"), comm.rank, comm.size)
        self._outstanding = Counter(self.engine, name="win-outstanding")
        self._per_target: Dict[int, int] = {}
        self._freed = False

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def _check(self, target: int, count: int, disp: int) -> np.ndarray:
        if self._freed:
            raise MpiError("RMA operation on a freed window")
        if not 0 <= target < self.comm.size:
            raise MpiError(f"RMA target {target} out of range [0,{self.comm.size})")
        exposed = self.shared.exposed.get(target)
        if exposed is None:
            raise MpiError(f"target {target} exposed no memory in this window")
        arr = storage(exposed)
        if disp < 0 or disp + count > arr.size:
            raise MpiError(
                f"RMA access [{disp}:{disp + count}] outside target window of {arr.size}"
            )
        return arr

    def _path_to(self, target: int):
        """The path to ``target``, from the matcher's pair record."""
        return self.ctx.world.matcher.pair(self.comm, self.comm.rank, target).path

    def _flight(self) -> InFlight:
        return InFlight(self.ctx.world.matcher.plane)

    def _launch(self, flight: InFlight, target: int, nbytes: int,
                land: Callable[[], None]) -> None:
        """Charge the call overhead as debt; the operation goes on the wire
        (and counts as outstanding) when it has elapsed."""
        self.engine.defer_busy(self.ctx.profile.host_call_overhead)
        path = self._path_to(target)

        def issue() -> None:
            transfer = flight.wire(path, nbytes, self.engine.now)
            metrics = self.engine.metrics
            if metrics.enabled:
                metrics.inc("mpi_rma_messages_total", size=size_class(nbytes),
                            rank=self.comm.rank)
                metrics.inc("mpi_rma_bytes_total", nbytes, rank=self.comm.rank)
            self._outstanding.add(1)
            self._per_target[target] = self._per_target.get(target, 0) + 1
            self.engine.schedule(max(0.0, transfer.delivered - self.engine.now), deliver)

        def retire() -> None:
            self._outstanding.add(-1)
            self._per_target[target] -= 1
            self.shared.updated.notify_all()

        def deliver() -> None:
            if flight.dropped():
                # Revoked mid-flight: retire the op so flush() accounting
                # stays balanced, but never apply the payload.
                retire()
                return
            san = self.engine.sanitizer
            if san is not None:
                # Deliveries on one path land in callback order (the wire is
                # FIFO): chain them, so a trailing signal put carries the
                # payload put it follows — the ordering this module's
                # completion semantics promise per target.
                san.acquire(path)
            land()
            retire()
            if san is not None:
                san.release(path)

        self.engine.after_busy(issue)

    # ------------------------------------------------------------------ #
    # One-sided operations (nonblocking; complete at synchronization).
    # ------------------------------------------------------------------ #

    def put(self, origin: BufferLike, count: int, target: int, target_disp: int = 0) -> None:
        """MPI_Put: write ``count`` elements into the target's window."""
        arr = self._check(target, count, target_disp)
        exposed = self.shared.exposed[target]
        flight = self._flight().snapshot(
            origin, storage(origin, count), count, note=f"rma-put->{target}")
        note = f"rma-put<-{self.comm.rank}"
        self._launch(flight, target, flight.data.nbytes,
                     lambda: flight.land(exposed, arr, note=note, offset=target_disp))

    def get(self, origin: BufferLike, count: int, target: int, target_disp: int = 0) -> None:
        """MPI_Get: read ``count`` elements from the target's window."""
        arr = self._check(target, count, target_disp)
        local = storage(origin, count)
        nbytes = int(count * local.dtype.itemsize)
        flight = self._flight().snapshot(
            self.shared.exposed[target], arr, count, note=f"rma-get->{target}",
            offset=target_disp, live=True)
        note = f"rma-get<-{target}"
        self._launch(flight, target, nbytes, lambda: flight.land(origin, local, note=note))

    def accumulate(self, origin: BufferLike, count: int, target: int,
                   op: str = "sum", target_disp: int = 0) -> None:
        """MPI_Accumulate: atomic element-wise update of the target window."""
        arr = self._check(target, count, target_disp)
        exposed = self.shared.exposed[target]
        flight = self._flight().snapshot(
            origin, storage(origin, count), count, note=f"rma-acc->{target}")
        note = f"rma-acc<-{self.comm.rank}"
        self._launch(flight, target, flight.data.nbytes,
                     lambda: flight.land(exposed, arr, note=note, offset=target_disp,
                                         reduce=op))

    # ------------------------------------------------------------------ #
    # Synchronization.
    # ------------------------------------------------------------------ #

    def flush(self, target: Optional[int] = None) -> None:
        """Complete outstanding operations (to one target, or all)."""
        if target is None:
            self._outstanding.wait_for(lambda v: v == 0)
        else:
            wait_until(self.shared.updated,
                       lambda: self._per_target.get(target, 0) == 0)

    def fence(self) -> None:
        """MPI_Win_fence: complete local ops, then synchronize the group."""
        self.flush()
        self.comm.barrier()

    def lock(self, target: int) -> None:
        """Exclusive passive-target lock (MPI_Win_lock)."""
        self._check(target, 0, 0)
        me = self.comm.rank
        # Lock acquisition costs a network round trip to the target.
        self.engine.defer_busy(self.ctx.profile.host_call_overhead)
        self.engine.defer_busy(2 * self._path_to(target).latency)
        wait_until(self.shared.lock_bcast,
                   lambda: self.shared.locks.get(target) is None)
        self.shared.locks[target] = me

    def unlock(self, target: int) -> None:
        """MPI_Win_unlock: flush operations to the target, release the lock."""
        if self.shared.locks.get(target) != self.comm.rank:
            raise MpiError(f"unlock of window not locked by rank {self.comm.rank}")
        self.flush(target)
        self.shared.locks[target] = None
        self.shared.lock_bcast.notify_all()

    def wait_value(self, predicate: Callable[[np.ndarray], bool]) -> None:
        """Block until the *local* window content satisfies ``predicate``
        (the polling loop a one-sided consumer runs, e.g. on a flag word)."""
        local = storage(self.buf)
        wait_until(self.shared.updated, lambda: predicate(local))

    def free(self) -> None:
        """MPI_Win_free: collective; outstanding work must be complete."""
        if self._freed:
            raise MpiError("window freed twice")
        self.flush()
        self._freed = True
        self.comm.barrier()
