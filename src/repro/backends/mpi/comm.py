"""MPI context, world state, and communicators.

The flow mirrors mpi4py/MPI: ``MpiContext(rank_ctx)`` is MPI_Init (and
registers the process with the shared world), ``ctx.comm_world`` is
MPI_COMM_WORLD, ``comm.split`` builds sub-communicators, and the
point-to-point calls charge the host-side costs of a GPU-aware MPI.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...errors import MpiError
from ...launcher import Job, RankContext
from ..common import BufferLike
from ..rendezvous import RendezvousBoard
from . import collectives as _coll
from .matching import ANY_SOURCE, ANY_TAG, MessageEngine
from .request import Request, waitall

__all__ = ["MpiContext", "MpiCommunicator", "MpiWorld"]


class MpiWorld:
    """Shared state for one MPI job (matcher, comm-id allocation)."""

    def __init__(self, job: Job):
        self.job = job
        self.engine = job.engine
        self.board = RendezvousBoard(job.engine)
        self.contexts: Dict[int, "MpiContext"] = {}
        self.next_comm_id = 1  # 0 is COMM_WORLD
        self.matcher = MessageEngine(job.engine, job.cluster, self.gpu_of)

    def gpu_of(self, global_rank: int) -> int:
        """The GPU a rank drives (its default local GPU until set_device)."""
        ctx = self.contexts.get(global_rank)
        if ctx is not None and ctx.rank_ctx.device is not None:
            return ctx.rank_ctx.device.gpu_id
        gpn = self.job.cluster.gpus_per_node
        return self.job.node_of_rank(global_rank) * gpn + self.job.node_rank_of(global_rank)

    def device_moved(self, global_rank: int) -> None:
        """``set_device`` gave a rank another GPU (``Job.device_moved``):
        the matcher's pair records fixed paths from the old one."""
        self.matcher.forget_pairs()

    def close(self) -> None:
        """Untie the finished job's MPI state (``Job.close``): world <->
        contexts <-> COMM_WORLD, the matcher and its rank lookup, and what
        the bootstrap rendezvous and unmatched messages still hold."""
        for ctx in self.contexts.values():
            ctx.comm_world = None
        self.contexts.clear()
        self.board.close()
        self.matcher.close()
        self.matcher = None

    def alloc_comm_ids(self, key: Any, n: int) -> int:
        """Deterministically reserve ``n`` consecutive communicator ids."""

        def reserve() -> int:
            base = self.next_comm_id
            self.next_comm_id += n
            return base

        return self.board.once(("comm_ids", key), reserve)


class MpiContext:
    """One rank's MPI library instance (MPI_Init .. MPI_Finalize)."""

    def __init__(self, rank_ctx: RankContext):
        self.rank_ctx = rank_ctx
        self.engine = rank_ctx.engine
        self.profile = rank_ctx.cluster.machine.mpi
        self.world: MpiWorld = rank_ctx.job.shared_state("mpi_world", lambda: MpiWorld(rank_ctx.job))
        self.world.contexts[rank_ctx.rank] = self
        self.finalized = False
        # MPI_Init is loosely synchronizing; everyone registers before any
        # rank proceeds, so peer lookup is always well-defined.
        self.world.board.gather("mpi_init", rank_ctx.rank, rank_ctx.world_size)
        self.comm_world = MpiCommunicator(self, comm_id=0, members=list(range(rank_ctx.world_size)))

    def finalize(self) -> None:
        """MPI_Finalize: loosely synchronizing; calls after it are errors."""
        if self.finalized:
            raise MpiError("MPI finalized twice")
        self.finalized = True
        self.world.board.gather("mpi_finalize", self.rank_ctx.rank, self.rank_ctx.world_size)

    def _check_live(self) -> None:
        if self.finalized:
            raise MpiError("MPI call after finalize")


class MpiCommunicator:
    """A group of ranks plus an isolated matching context (MPI_Comm)."""

    def __init__(self, ctx: MpiContext, comm_id: int, members: List[int]):
        self.ctx = ctx
        self.engine = ctx.engine
        self.comm_id = comm_id
        self.members = members  # comm-local rank -> global rank
        try:
            self.rank = members.index(ctx.rank_ctx.rank)
        except ValueError:
            raise MpiError(f"rank {ctx.rank_ctx.rank} not in communicator members") from None
        self.size = len(members)
        self._profile = ctx.profile
        self._coll_seq = 0

    # ------------------------------------------------------------------ #

    def global_rank_of(self, local_rank: int) -> int:
        """Translate a comm-local rank to the global (world) rank."""
        return self.members[local_rank]

    def _charge(self, seconds: float) -> None:
        self.engine.defer_busy(seconds)

    def _next_coll_tag(self) -> int:
        """A fresh internal tag space for one collective invocation."""
        self._coll_seq += 1
        return -(self._coll_seq * 64)

    # ------------------------------------------------------------------ #
    # Point-to-point.
    # ------------------------------------------------------------------ #

    def send(self, buf: BufferLike, count: int, dst: int, tag: int = 0) -> None:
        """Blocking standard-mode send."""
        self.ctx._check_live()
        self._charge(self._profile.host_call_overhead)
        req = self.ctx.world.matcher.post_send(self, self._profile, buf, count, dst, tag)
        req.wait()

    def recv(self, buf: BufferLike, count: int, src: Optional[int], tag: Optional[int] = 0) -> None:
        """Blocking receive (src/tag may be ANY_SOURCE/ANY_TAG)."""
        self.ctx._check_live()
        self._charge(self._profile.host_call_overhead)
        req = self.ctx.world.matcher.post_recv(self, self._profile, buf, count, src, tag)
        req.wait()

    def isend(self, buf: BufferLike, count: int, dst: int, tag: int = 0) -> Request:
        """Nonblocking send.

        The host-call overhead is not slept here but handed to the matcher,
        which charges it as busy time and registers the send at the exact
        virtual time a sleeping caller would have (``Engine.after_busy``) —
        so a burst of posts costs zero context switches but identical
        timestamps.
        """
        self.ctx._check_live()
        return self.ctx.world.matcher.post_send(
            self, self._profile, buf, count, dst, tag, self._profile.host_call_overhead)

    def irecv(self, buf: BufferLike, count: int, src: Optional[int], tag: Optional[int] = 0) -> Request:
        """Nonblocking receive (overhead charged as in :meth:`isend`)."""
        self.ctx._check_live()
        return self.ctx.world.matcher.post_recv(
            self, self._profile, buf, count, src, tag, self._profile.host_call_overhead)

    def sendrecv(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        dst: int,
        recvbuf: BufferLike,
        recvcount: int,
        src: Optional[int],
        tag: int = 0,
    ) -> None:
        """Deadlock-free paired exchange."""
        rreq = self.irecv(recvbuf, recvcount, src, tag)
        sreq = self.isend(sendbuf, sendcount, dst, tag)
        waitall([rreq, sreq])

    # ------------------------------------------------------------------ #
    # Collectives (implemented over the P2P layer; see collectives.py).
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """MPI_Barrier (dissemination algorithm)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.barrier(self)

    def bcast(self, buf: BufferLike, count: int, root: int) -> None:
        """MPI_Bcast (binomial tree)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.bcast(self, buf, count, root)

    def reduce(self, sendbuf, recvbuf, count: int, op: str, root: int) -> None:
        """MPI_Reduce (binomial tree; recvbuf significant at root)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.reduce(self, sendbuf, recvbuf, count, op, root)

    def allreduce(self, sendbuf, recvbuf, count: int, op: str = "sum") -> None:
        """MPI_Allreduce (reduce-to-0 + bcast)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.allreduce(self, sendbuf, recvbuf, count, op)

    def gather(self, sendbuf, recvbuf, count: int, root: int) -> None:
        """MPI_Gather (linear fan-in at the root)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.gather(self, sendbuf, recvbuf, count, root)

    def gatherv(self, sendbuf, sendcount, recvbuf, counts, displs, root: int) -> None:
        """MPI_Gatherv with per-rank counts/displacements."""
        self._charge(self._profile.collective_call_overhead)
        _coll.gatherv(self, sendbuf, sendcount, recvbuf, counts, displs, root)

    def scatter(self, sendbuf, recvbuf, count: int, root: int) -> None:
        """MPI_Scatter (linear fan-out from the root)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.scatter(self, sendbuf, recvbuf, count, root)

    def scatterv(self, sendbuf, counts, displs, recvbuf, recvcount, root: int) -> None:
        """MPI_Scatterv with per-rank counts/displacements."""
        self._charge(self._profile.collective_call_overhead)
        _coll.scatterv(self, sendbuf, counts, displs, recvbuf, recvcount, root)

    def reduce_scatter(self, sendbuf, recvbuf, count: int, op: str = "sum") -> None:
        """MPI_Reduce_scatter_block (each rank receives ``count`` elements)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.reduce_scatter(self, sendbuf, recvbuf, count, op)

    def allgather(self, sendbuf, recvbuf, count: int) -> None:
        """MPI_Allgather (gather-to-0 + bcast, the GPU-buffer path)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.allgather(self, sendbuf, recvbuf, count)

    def allgatherv(self, sendbuf, sendcount, recvbuf, counts, displs) -> None:
        """MPI_Allgatherv (gatherv-to-0 + full-vector bcast)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.allgatherv(self, sendbuf, sendcount, recvbuf, counts, displs)

    def alltoall(self, sendbuf, recvbuf, count: int) -> None:
        """MPI_Alltoall (pairwise exchange rounds)."""
        self._charge(self._profile.collective_call_overhead)
        _coll.alltoall(self, sendbuf, recvbuf, count)

    # ------------------------------------------------------------------ #

    def split(self, color: int, key: int = 0) -> "MpiCommunicator":
        """MPI_Comm_split: collective over all members of this comm."""
        self.ctx._check_live()
        self._coll_seq += 1
        slot = ("mpi_split", self.comm_id, self._coll_seq)
        payloads = self.ctx.world.board.gather(
            slot, self.rank, self.size, (color, key, self.members[self.rank])
        )
        colors = sorted({c for c, _, _ in payloads.values()})
        base = self.ctx.world.alloc_comm_ids(slot, len(colors))
        my_id = base + colors.index(color)
        group = sorted(
            (p for p in payloads.values() if p[0] == color),
            key=lambda p: (p[1], p[2]),
        )
        members = [g for _, _, g in group]
        return MpiCommunicator(self.ctx, my_id, members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MpiCommunicator id={self.comm_id} rank={self.rank}/{self.size}>"
