"""GPUCCL collectives: fused kernels priced by their schedules.

Every rank enqueues one stream op per collective call; the ops of one
logical collective rendezvous in a shared slot (keyed by the per-comm
collective sequence number — GPUCCL requires identical call order on all
ranks). When the last rank's op starts, the communicator's model prices
the selected algorithm's schedule (the ring by default) and all ranks
complete together, with the data applied at completion time.
"""

from __future__ import annotations

from typing import Optional

from ...coll import DEFAULT_ALGORITHM, CollSelection
from ...errors import GpucclError
from ...gpu.stream import ExternalOp, Stream
from ...obs import size_class
from ..common import BufferLike, FusedCollective, as_array

__all__ = ["all_reduce", "broadcast", "reduce", "all_gather", "reduce_scatter"]

#: What runs when no policy selects, per kind.
_DEFAULT = {kind: CollSelection(algorithm)
            for kind, algorithm in DEFAULT_ALGORITHM["gpuccl"].items()}


def _submit(comm, stream: Stream, kind: str, send: BufferLike, recv: Optional[BufferLike],
            count: int, snapshot_count: int, op: Optional[str], root: Optional[int]) -> None:
    comm._check(0 if root is None else root)
    shared = comm.shared
    policy = comm.engine.coll
    algorithm = _DEFAULT[kind]
    if policy is not None and comm.size > 1:
        nbytes = int(count * as_array(send).dtype.itemsize)
        selected = policy.select("gpuccl", kind, nbytes, shared.model.topo,
                                 engine=comm.engine)
        if selected is not None:
            algorithm = selected
    metrics = comm.engine.metrics
    if metrics.enabled:
        nbytes = int(count * as_array(send).dtype.itemsize)
        metrics.inc("gpuccl_collectives_total", kind=kind,
                    algorithm=str(algorithm),
                    protocol=algorithm.protocol or "-",
                    channels=str(algorithm.channels),
                    size=size_class(nbytes), rank=comm.rank)
    comm._coll_seq += 1
    seq = comm._coll_seq
    slot = shared.coll_slots.get(seq)
    if slot is None:
        # The model prices the selection's generated schedule with its
        # wire protocol and rail count.
        slot = shared.coll_slots[seq] = FusedCollective(
            shared.plane, comm.size, shared.model.duration,
            kind, count, op, root, algorithm)
        # Every member has looked the slot up by the time it completes:
        # it leaves the table then, snapshots and finishers with it.
        slot.finishers.append(lambda: shared.coll_slots.pop(seq))
    rank = comm.rank

    def on_start(op_handle: ExternalOp) -> None:
        def register() -> None:
            bad = slot.mismatch(kind, count, op, root, algorithm)
            if bad is not None:
                raise GpucclError(f"mismatched collective on rank {rank}: "
                                  f"got {bad[0]}, expected {bad[1]}")
            if rank in slot.records:
                raise GpucclError(f"rank {rank} joined collective twice")
            slot.arrive(rank, send, snapshot_count, recv, op_handle.finish)

        comm.engine.schedule(comm.profile.comm_launch_overhead, register)

    stream.enqueue(ExternalOp(comm.engine, f"gpuccl-{kind}[r{rank}]", on_start))


def all_reduce(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int,
               op: str = "sum", stream: Stream = None) -> None:
    """ncclAllReduce (in-place allowed: sendbuf may alias recvbuf)."""
    _submit(comm, stream, "all_reduce", sendbuf, recvbuf, count, count, op, None)


def broadcast(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int,
              root: int = 0, stream: Stream = None) -> None:
    """ncclBroadcast (sendbuf significant at root; in-place allowed)."""
    _submit(comm, stream, "broadcast", sendbuf, recvbuf, count, count, None, root)


def reduce(comm, sendbuf: BufferLike, recvbuf: Optional[BufferLike], count: int,
           op: str = "sum", root: int = 0, stream: Stream = None) -> None:
    """ncclReduce (recvbuf significant at root)."""
    _submit(comm, stream, "reduce", sendbuf, recvbuf, count, count, op, root)


def all_gather(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int,
               stream: Stream = None) -> None:
    """ncclAllGather: each rank contributes ``count`` elements."""
    _submit(comm, stream, "all_gather", sendbuf, recvbuf, count, count, None, None)


def reduce_scatter(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int,
                   op: str = "sum", stream: Stream = None) -> None:
    """ncclReduceScatter: each rank receives its ``count``-element chunk."""
    _submit(comm, stream, "reduce_scatter", sendbuf, recvbuf, count, count * comm.size, op, None)
