"""The GPUSHMEM library context: init, symmetric heap, host and stream APIs.

Mirrors NVSHMEM's host-side surface:

- ``ShmemContext(rank_ctx)`` = nvshmem_init (collective, device must be set);
- ``malloc``/``free`` = nvshmem_malloc/free (collective, symmetric heap);
- ``put``/``get``/``put_signal`` blocking host variants plus ``*_on_stream``
  stream-ordered variants;
- ``signal_wait_until`` / ``signal_wait_until_on_stream``;
- ``barrier_all`` / ``barrier_all_on_stream``; ``quiet``/``fence``;
- team collectives (broadcast, reduce, allreduce, fcollect, alltoall);
- ``collective_launch`` = nvshmemx_collective_launch, which injects the
  device API (``ctx.shmem``) into the kernel and enforces the cooperative
  grid limit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...errors import GpushmemError
from ...gpu.kernel import DeviceCtx, KernelSpec
from ...gpu.stream import ExternalOp, Stream
from ...launcher import Job, RankContext
from ...obs import SeriesBy
from ...sim import Counter, SimEvent, wait_until
from ..common import BufferLike, DataPlane
from ..rendezvous import RendezvousBoard
from .collectives import ShmemTeam
from .device_api import ShmemDevice
from .heap import CMP, SIGNAL_SET, SymBuffer, SymObject
from .transfers import PePair, check_signal, issue_get, issue_put

__all__ = ["ShmemContext", "ShmemWorld"]


class ShmemWorld:
    """Shared state for one GPUSHMEM job."""

    def __init__(self, job: Job):
        profile = job.cluster.machine.gpushmem
        if profile is None:
            raise GpushmemError(
                f"GPUSHMEM is not available on {job.cluster.machine.name} (Table I: N/A)"
            )
        self.job = job
        self.engine = job.engine
        self.cluster = job.cluster
        self.profile = profile
        self.board = RendezvousBoard(job.engine)
        self.contexts: Dict[int, "ShmemContext"] = {}
        self.allocations: List[SymObject] = []
        self.plane = DataPlane(self.engine, "gpushmem")
        #: (src PE, dst PE) -> the pair's record (transfers.PePair).
        self.pairs: Dict[Tuple[int, int], PePair] = {}
        # Traffic series (fed by transfers.issue_put / issue_get).
        bind = self.engine.metrics.bind_counter
        self.puts = SeriesBy(bind, "shmem_puts_total", "size", "rank")
        self.gets = SeriesBy(bind, "shmem_gets_total", "size", "rank")
        self.bytes_moved = SeriesBy(bind, "shmem_bytes_total", "op", "rank")

    def close(self) -> None:
        """Untie the finished job's GPUSHMEM state (``Job.close``): world
        <-> contexts (and through them the teams), the pair records, and
        the rendezvous board with the symmetric heap and the teams'
        topologies."""
        self.contexts.clear()
        self.pairs.clear()
        self.board.close()

    def pair(self, src: int, dst: int) -> PePair:
        """The record of PE ``src`` -> PE ``dst``."""
        pair = self.pairs.get((src, dst))
        if pair is None:
            pair = self.pairs[src, dst] = PePair(self, src, dst)
        return pair

    def gpu_of(self, pe: int) -> int:
        """The GPU id a PE drives."""
        ctx = self.contexts.get(pe)
        if ctx is None:
            raise GpushmemError(f"PE {pe} is not initialized")
        return ctx.device.gpu_id


class ShmemContext:
    """One PE's GPUSHMEM library instance."""

    def __init__(self, rank_ctx: RankContext):
        if rank_ctx.device is None:
            raise GpushmemError("GPUSHMEM requires a selected GPU before init")
        self.rank_ctx = rank_ctx
        self.engine = rank_ctx.engine
        self.device = rank_ctx.device
        self.world: ShmemWorld = rank_ctx.job.shared_state(
            "gpushmem_world", lambda: ShmemWorld(rank_ctx.job)
        )
        self.profile = self.world.profile
        self.my_pe = rank_ctx.rank
        self.n_pes = rank_ctx.world_size
        self.world.contexts[self.my_pe] = self
        self._alloc_index = 0
        self._outstanding = Counter(self.engine, name=f"quiet[{self.my_pe}]")
        bind = self.engine.metrics.bind_counter
        self._host_waits = bind("shmem_signal_waits_total", kind="host", rank=self.my_pe)
        self._stream_waits = bind("shmem_signal_waits_total", kind="stream", rank=self.my_pe)
        self.world.board.gather("shmem_init", self.my_pe, self.n_pes)
        self.team_world = ShmemTeam(self.world, list(range(self.n_pes)), self.my_pe, "world")

    # ------------------------------------------------------------------ #
    # Symmetric heap.
    # ------------------------------------------------------------------ #

    def malloc(self, count: int, dtype=np.float32) -> SymBuffer:
        """Collective symmetric allocation (nvshmem_malloc)."""
        index = self._alloc_index
        self._alloc_index += 1
        obj = self.world.board.once(
            ("sym_alloc", index),
            lambda: SymObject(self.engine, index, count, np.dtype(dtype), self.n_pes),
        )
        obj.check_symmetric(count, dtype)
        obj.attach(self.my_pe, self.device.malloc(count, dtype))
        # nvshmem_malloc synchronizes all PEs.
        self.world.board.gather(("malloc_sync", index), self.my_pe, self.n_pes)
        return obj.slice(self.my_pe, 0, count)

    def free(self, sym: SymBuffer) -> None:
        """Collective symmetric free (nvshmem_free); pass the root buffer."""
        if sym.offset != 0 or sym.count != sym.obj.count:
            raise GpushmemError("free requires the original allocation, not a slice")
        self.device.free(sym.obj.storage(self.my_pe))
        self.world.board.gather(("free_sync", sym.obj.index), self.my_pe, self.n_pes)

    # ------------------------------------------------------------------ #
    # Internals shared by put/get flavours.
    # ------------------------------------------------------------------ #

    def _pe_check(self, pe: int) -> None:
        if not 0 <= pe < self.n_pes:
            raise GpushmemError(f"PE {pe} out of range [0,{self.n_pes})")

    def _pair(self, pe: int) -> PePair:
        """The record of this PE's traffic to ``pe`` (range-checked when
        first made)."""
        pair = self.world.pairs.get((self.my_pe, pe))
        if pair is None:
            self._pe_check(pe)
            pair = self.world.pair(self.my_pe, pe)
        return pair

    def _issue_put(self, pair, dest, src, count, *, signal=None, penalty=1.0,
                   device_initiated=False, on_local_done=None) -> None:
        """One put along ``pair``; it counts as outstanding from its issue
        (see :func:`issue_put`) until it is delivered. A device-initiated
        put pays the pair's device-path latency terms."""
        extra, adjust = pair.device_terms if device_initiated else (0.0, 0.0)
        issue_put(
            self.world, pair, dest, src, count,
            signal=signal,
            bandwidth_penalty=penalty,
            extra_latency=extra,
            latency_adjust=adjust,
            outstanding=self._outstanding,
            on_local_done=on_local_done,
        )

    def _outstanding_at_own_time(self) -> List[int]:
        """The outstanding-put count as the caller would read it had it
        slept its charges: a one-element list, filled once its busy time
        has elapsed (``Engine.after_busy``) — before anything it issues
        next, and at the latest when it next blocks."""
        level: List[int] = []
        self.engine.after_busy(lambda: level.append(self._outstanding.value))
        return level

    # ------------------------------------------------------------------ #
    # Blocking host API.
    # ------------------------------------------------------------------ #

    def put(self, dest: SymBuffer, src: BufferLike, count: int, pe: int) -> None:
        """Blocking host put: returns when the data is delivered."""
        self.engine.defer_busy(self.profile.host_post_overhead)
        before = self._outstanding_at_own_time()
        self._issue_put(self._pair(pe), dest, src, count)
        self._outstanding.wait_for(lambda v: v <= before[0])

    def get(self, dest: BufferLike, src: SymBuffer, count: int, pe: int) -> None:
        """Blocking host get."""
        self._pe_check(pe)
        self.engine.defer_busy(self.profile.host_post_overhead)
        done = SimEvent(self.engine, "get")
        issue_get(self.world, self.world.pair(pe, self.my_pe), dest, src, count,
                  on_delivered=done.set)
        done.wait()

    def put_signal(self, dest: SymBuffer, src: BufferLike, count: int,
                   sig: SymBuffer, value: int, pe: int, op: str = SIGNAL_SET) -> None:
        """Blocking host put-with-signal."""
        self.engine.defer_busy(self.profile.host_post_overhead)
        before = self._outstanding_at_own_time()
        self._issue_put(self._pair(pe), dest, src, count, signal=(sig, value, op))
        self._outstanding.wait_for(lambda v: v <= before[0])

    def signal_wait_until(self, sig: SymBuffer, cmp: str, value: int,
                          timeout: Optional[float] = None) -> int:
        """Block the host until the local signal satisfies the comparison.

        ``timeout`` (virtual seconds) bounds the wait: a signal that never
        arrives — e.g. because the producing PE crashed under fault
        injection — raises :class:`~repro.errors.SimTimeoutError` instead of
        hanging the simulation.
        """
        self._host_waits.inc()
        wait_until(sig.obj.updated[sig.my_pe], _signal_predicate(sig, cmp, value),
                   timeout=timeout,
                   what=f"signal_wait_until(sym{sig.obj.index} {cmp} {value}) on PE {self.my_pe}")
        return int(sig.local.raw[0])

    def quiet(self) -> None:
        """Block until all puts issued by this PE are delivered."""
        self._outstanding.wait_for(lambda v: v == 0)

    def fence(self) -> None:
        """Ordering fence; deliveries are already point-to-point ordered."""
        self.engine.defer_busy(self.profile.host_post_overhead / 4)

    def barrier_all(self) -> None:
        """Host barrier across all PEs."""
        self.team_world.run_collective("barrier", None, None, 0)

    # ------------------------------------------------------------------ #
    # Stream-ordered API (nvshmemx_*_on_stream).
    # ------------------------------------------------------------------ #

    def put_on_stream(self, dest: SymBuffer, src: BufferLike, count: int,
                      pe: int, stream: Stream) -> None:
        """Stream-ordered one-sided put (nvshmemx_putmem_on_stream)."""
        pair = self._pair(pe)

        def on_start(op: ExternalOp) -> None:
            def issue() -> None:
                self._issue_put(pair, dest, src, count, on_local_done=op.finish)

            self.engine.schedule(self.profile.host_post_overhead, issue)

        stream.enqueue(ExternalOp(self.engine, f"shmem-put[pe{self.my_pe}->{pe}]", on_start))

    def put_signal_on_stream(self, dest: SymBuffer, src: BufferLike, count: int,
                             sig: SymBuffer, value: int, pe: int, stream: Stream,
                             op: str = SIGNAL_SET) -> None:
        """Stream-ordered put-with-signal (payload first, then signal).
        The pair and the signal are checked here, at enqueue time."""
        pair = self._pair(pe)
        check_signal(sig, op)

        def on_start(op_handle: ExternalOp) -> None:
            def issue() -> None:
                self._issue_put(pair, dest, src, count, signal=(sig, value, op),
                                on_local_done=op_handle.finish)

            self.engine.schedule(self.profile.host_post_overhead, issue)

        stream.enqueue(ExternalOp(self.engine, f"shmem-put-signal[pe{self.my_pe}->{pe}]", on_start))

    def get_on_stream(self, dest: BufferLike, src: SymBuffer, count: int,
                      pe: int, stream: Stream) -> None:
        """Stream-ordered one-sided get."""
        self._pe_check(pe)
        pair = self.world.pair(pe, self.my_pe)

        def on_start(op: ExternalOp) -> None:
            def issue() -> None:
                issue_get(self.world, pair, dest, src, count, on_delivered=op.finish)

            self.engine.schedule(self.profile.host_post_overhead, issue)

        stream.enqueue(ExternalOp(self.engine, f"shmem-get[pe{self.my_pe}<-{pe}]", on_start))

    def signal_wait_until_on_stream(self, sig: SymBuffer, cmp: str, value: int,
                                    stream: Stream) -> None:
        """Block the *stream* until the local signal satisfies the compare."""
        self._stream_waits.inc()
        pred = _signal_predicate(sig, cmp, value)

        def on_start(op: ExternalOp) -> None:
            sig.obj.watch(sig.my_pe, pred, op.finish)

        stream.enqueue(ExternalOp(self.engine, "shmem-signal-wait", on_start))

    def quiet_on_stream(self, stream: Stream) -> None:
        """Stream op completing all outstanding puts by this PE."""
        def on_start(op: ExternalOp) -> None:
            self._outstanding.watch(lambda v: v == 0, op.finish)

        stream.enqueue(ExternalOp(self.engine, "shmem-quiet", on_start))

    def barrier_all_on_stream(self, stream: Stream) -> None:
        """Stream-ordered barrier across all PEs."""
        self.team_world.run_collective("barrier", None, None, 0, stream=stream)

    # ------------------------------------------------------------------ #
    # Team collectives (host blocking or on-stream via ``stream=``).
    # ------------------------------------------------------------------ #

    def broadcast(self, send: BufferLike, recv: BufferLike, count: int, root: int,
                  *, team: Optional[ShmemTeam] = None, stream: Optional[Stream] = None) -> None:
        """Team broadcast (host-blocking, or stream-ordered via stream=)."""
        team = team or self.team_world
        team.run_collective("broadcast", send, recv, count, root=root, stream=stream)

    def reduce(self, send: BufferLike, recv: Optional[BufferLike], count: int, op: str,
               root: int, *, team: Optional[ShmemTeam] = None,
               stream: Optional[Stream] = None) -> None:
        """Team reduce to a root (host-blocking or stream-ordered)."""
        team = team or self.team_world
        team.run_collective("reduce", send, recv if team.my_pe == root else None,
                            count, op=op, root=root, stream=stream)

    def allreduce(self, send: BufferLike, recv: BufferLike, count: int, op: str = "sum",
                  *, team: Optional[ShmemTeam] = None, stream: Optional[Stream] = None) -> None:
        """Team allreduce (host-blocking or stream-ordered)."""
        team = team or self.team_world
        team.run_collective("allreduce", send, recv, count, op=op, stream=stream)

    def fcollect(self, send: BufferLike, recv: BufferLike, count: int,
                 *, team: Optional[ShmemTeam] = None, stream: Optional[Stream] = None) -> None:
        """Allgather: every PE contributes ``count`` elements."""
        team = team or self.team_world
        team.run_collective("fcollect", send, recv, count, stream=stream)

    def reduce_scatter(self, send: BufferLike, recv: BufferLike, count: int,
                       op: str = "sum", *, team: Optional[ShmemTeam] = None,
                       stream: Optional[Stream] = None) -> None:
        """Reduce-scatter: each PE receives its ``count``-element chunk."""
        team = team or self.team_world
        team.run_collective("reduce_scatter", send, recv, count, op=op,
                            stream=stream, snapshot_count=count * team.size)

    def alltoall(self, send: BufferLike, recv: BufferLike, count: int,
                 *, team: Optional[ShmemTeam] = None, stream: Optional[Stream] = None) -> None:
        """Team alltoall (host-blocking or stream-ordered)."""
        team = team or self.team_world
        team.run_collective("alltoall", send, recv, count, stream=stream,
                            snapshot_count=count * (team or self.team_world).size)

    # ------------------------------------------------------------------ #
    # Device-side support.
    # ------------------------------------------------------------------ #

    def collective_launch(self, kernel: KernelSpec, grid, block, args=(),
                          stream: Optional[Stream] = None) -> None:
        """nvshmemx_collective_launch: run a kernel with the device API.

        The kernel body receives the device handle as ``ctx.shmem``. The
        launch is cooperative, so the grid must fit the device's resident
        limit (no preemption — paper Section II-B).
        """
        if not kernel.uses_device_comm:
            raise GpushmemError("collective_launch requires a @device_kernel")
        inner = kernel.fn
        shmem_ctx = self

        def wrapped(dctx: DeviceCtx, *a):
            dctx.attach("shmem", ShmemDevice(shmem_ctx, dctx))
            return inner(dctx, *a)

        spec = KernelSpec(fn=wrapped, name=kernel.name, uses_device_comm=True)
        self.device.launch(spec, grid, block, args=args, stream=stream, cooperative=True)


def _signal_predicate(sig: SymBuffer, cmp: str, value: int):
    try:
        compare = CMP[cmp]
    except KeyError:
        raise GpushmemError(f"unknown comparison {cmp!r}; known: {sorted(CMP)}") from None

    local = sig.local  # the one view of the signal word on this PE

    def pred() -> bool:
        # `.raw`: predicates are simulation machinery, evaluated at notify
        # points under arbitrary contexts — the synchronization they build
        # (signal_wait_until) is what creates the happens-before edge.
        return bool(compare(int(local.raw[0]), value))

    return pred
