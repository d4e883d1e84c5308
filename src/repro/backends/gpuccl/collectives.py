"""GPUCCL collectives: fused ring kernels with analytic timing.

Every rank enqueues one stream op per collective call; the ops of one
logical collective rendezvous in a shared slot (keyed by the per-comm
collective sequence number — GPUCCL requires identical call order on all
ranks). When the last rank's op starts, the ring duration is computed and
all ranks complete together, with the data applied at completion time.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...coll import CollSelection
from ...errors import GpucclError
from ...gpu.stream import ExternalOp, Stream
from ...obs import size_class
from ..common import BufferLike, apply_reduce, as_array

__all__ = ["all_reduce", "broadcast", "reduce", "all_gather", "reduce_scatter"]

#: What runs when no policy selects: the ring on its legacy wire behaviour.
_RING = CollSelection("ring")


class _CollSlot:
    """Rendezvous for one collective invocation across ranks."""

    def __init__(self, kind: str, count: int, op: Optional[str], root: Optional[int],
                 nranks: int, algorithm: CollSelection):
        self.kind = kind
        self.count = count
        self.op = op
        self.root = root
        self.nranks = nranks
        # The slot keys on algorithm, protocol and channels, so a rank
        # arriving with a different wire protocol is a call-order
        # mismatch, same as a different algorithm.
        self.algorithm = str(algorithm)
        self.protocol = algorithm.protocol
        self.channels = algorithm.channels
        self.records: Dict[int, tuple] = {}

    def arrive(self, shared, rank: int, op_handle, send_snapshot, recv_buf,
               kind: str, count: int, op: Optional[str], root: Optional[int],
               algorithm: CollSelection) -> None:
        protocol, channels = algorithm.protocol, algorithm.channels
        if (kind, count, op, root, str(algorithm), protocol, channels) != (
                self.kind, self.count, self.op, self.root, self.algorithm,
                self.protocol, self.channels):
            raise GpucclError(
                f"mismatched collective on rank {rank}: "
                f"got {kind}(count={count}, op={op}, root={root}, "
                f"algorithm={algorithm}, protocol={protocol}, "
                f"channels={channels}), "
                f"expected {self.kind}(count={self.count}, op={self.op}, "
                f"root={self.root}, algorithm={self.algorithm}, "
                f"protocol={self.protocol}, channels={self.channels})"
            )
        if rank in self.records:
            raise GpucclError(f"rank {rank} joined collective twice")
        san = shared.engine.sanitizer
        if san is not None:
            # Every rank's arrival happens-before the collective completes.
            san.release(self)
        self.records[rank] = (op_handle, send_snapshot, recv_buf)
        if len(self.records) == self.nranks:
            self._fire(shared)

    def _fire(self, shared) -> None:
        itemsize = next(iter(self.records.values()))[1].dtype.itemsize
        nbytes = self.count * itemsize
        # "ring" with no explicit protocol reproduces the historical
        # RingModel timing exactly; any other selection is priced over its
        # generated schedule with the chosen wire protocol and rail count.
        duration = shared.ring.duration(self.kind, nbytes, self.algorithm,
                                        self.protocol, self.channels)
        epoch = shared.engine.fence_epoch

        def complete() -> None:
            if shared.engine.fence_epoch != epoch:
                # Fenced by a revoke before completion (see Engine.fence):
                # results are never applied to buffers the survivors may
                # have rebuilt for the next communicator generation.
                if shared.engine.metrics.enabled:
                    shared.engine.metrics.inc(
                        "fenced_deliveries_total", backend="gpuccl"
                    )
                return
            san = shared.engine.sanitizer
            if san is not None:
                # Ordered after every rank's arrival, not only the last one
                # (whose context this scheduled callback inherits).
                san.acquire(self)
            self._apply(san)
            for op_handle, _, _ in self.records.values():
                op_handle.finish()

        shared.engine.schedule(duration, complete)

    def _apply(self, san) -> None:
        kind, count, p = self.kind, self.count, self.nranks

        def put(recv, n, payload) -> None:
            if san is not None:
                san.record(recv, "w", 0, n, note=f"ccl-{kind}")
            as_array(recv)[:n] = payload

        if kind in ("all_reduce", "reduce", "reduce_scatter"):
            total = self.records[0][1].copy()
            for r in range(1, p):
                apply_reduce(self.op, total, self.records[r][1])
            if kind == "all_reduce":
                for _, _, recv in self.records.values():
                    put(recv, count, total)
            elif kind == "reduce":
                put(self.records[self.root][2], count, total)
            else:  # reduce_scatter: rank r keeps chunk r
                for r, (_, _, recv) in self.records.items():
                    put(recv, count, total[r * count : (r + 1) * count])
        elif kind == "broadcast":
            payload = self.records[self.root][1]
            for _, _, recv in self.records.values():
                put(recv, count, payload)
        elif kind == "all_gather":
            gathered = np.concatenate([self.records[r][1] for r in range(p)])
            for _, _, recv in self.records.values():
                put(recv, count * p, gathered)
        else:  # pragma: no cover - guarded by the dispatch dict
            raise GpucclError(f"unknown collective kind {kind}")


def _submit(comm, stream: Stream, kind: str, send: BufferLike, recv: Optional[BufferLike],
            count: int, snapshot_count: int, op: Optional[str], root: Optional[int]) -> None:
    comm._check(0 if root is None else root)
    shared = comm.shared
    policy = comm.engine.coll
    algorithm = _RING
    if policy is not None and comm.size > 1:
        nbytes = int(count * as_array(send).dtype.itemsize)
        selected = policy.select("gpuccl", kind, nbytes, shared.ring.topo,
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
        slot = _CollSlot(kind, count, op, root, comm.size, algorithm)
        shared.coll_slots[seq] = slot
    rank = comm.rank

    def on_start(op_handle: ExternalOp) -> None:
        def register() -> None:
            san = comm.engine.sanitizer
            if san is not None:
                san.record(send, "r", 0, snapshot_count, note=f"ccl-{kind}")
            snapshot = as_array(send, snapshot_count).copy()
            slot.arrive(shared, rank, op_handle, snapshot, recv, kind, count,
                        op, root, algorithm)

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
