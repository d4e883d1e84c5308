"""MPI collectives, built on the library's own point-to-point layer.

Every data collective runs a generated :class:`~repro.coll.Schedule` as a
real isend/irecv step program (:func:`_run_schedule`): under a collective
policy (``launch(coll=...)``) the tunable kinds run its pick, otherwise
MPI's ``native`` schedules (:mod:`repro.coll.algorithms`). Among those,
allgather(v) is a gatherv to rank 0 plus a public ``bcast`` of the whole
vector, the GPU-buffer fallback behind the paper's Fig. 6 (MPI far behind
NCCL on the CG solver's AllGatherv). What runs is what
:class:`~repro.coll.MpiModel` prices and the dead-link check inspects;
only the zero-byte barrier is written by hand. Tags are negative, one per
schedule phase, from a per-communicator sequence number (every member
calls collectives in the same order). Large device payloads pay a host
staging copy on each side of every hop (:func:`_stage`): MPI collectives
bounce GPU buffers through the host instead of riding GPUDirect RDMA.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...coll import Topology
from ...coll.schedule import (COPY, RECV, SEND, chunk_layout, extract_output,
                              init_workspace, packed_offsets, workspace_size)
from ...coll.tuner import _TUNABLE_KINDS
from ...errors import MpiError
from ..common import BufferLike, apply_reduce, as_array
from .request import waitall

__all__ = ["barrier", "bcast", "reduce", "allreduce", "gather", "gatherv",
           "scatter", "scatterv", "allgather", "allgatherv", "alltoall",
           "reduce_scatter"]

_EMPTY = np.empty(0, np.uint8)

#: Kinds whose result is the receive buffer in workspace layout: run in place.
_IN_PLACE = ("broadcast", "all_reduce", "all_gather")


def _record(comm, buf, kind: str, start: int, count: int, note: str) -> None:
    """Sanitizer record in the calling rank's context (P2P sees views only)."""
    san = comm.engine.sanitizer
    if san is not None:
        san.record(buf, kind, start, count, note=note)


def _stage(comm, buf: BufferLike, count: int) -> None:
    """Charge the device<->host bounce copy of a large collective payload
    (unless the profile's ``collective_gpu_direct`` says MPI skips it)."""
    profile = comm._profile
    if profile.collective_gpu_direct:
        return
    nbytes = count * as_array(buf).dtype.itemsize
    if nbytes > profile.eager_threshold:
        comm._charge(nbytes / profile.eager_copy_bandwidth)


def _coll_topology(comm) -> Topology:
    """The communicator's coll Topology, one object for all its ranks (the
    world board hands it out): a schedule is generated once, not per rank."""
    topo = getattr(comm, "_coll_topo", None)
    if topo is None:
        world = comm.ctx.world
        topo = comm._coll_topo = world.board.once(
            ("coll_topo", comm.comm_id),
            lambda: Topology(comm.ctx.rank_ctx.cluster,
                             [world.gpu_of(g) for g in comm.members]))
    return topo


def _run_schedule(comm, sched, view, op: Optional[str], channels: int = 1,
                  stage: bool = True) -> None:
    """Execute one rank's step program of a Schedule; ``view(offset,
    length)`` is the array range a step addresses.

    One tag per phase (:attr:`~repro.coll.Schedule.phases`) suffices: the
    matcher is FIFO per ordered (src, dst) pair and each round's messages
    balance. Sends are staged before they are posted, receives after they
    land. ``channels > 1`` stripes each message into balanced chunks,
    identical on both sides, so per-pair FIFO keeps chunk order.
    """
    tags = {start: comm._next_coll_tag() for start in sched.phases}
    tag = None
    for rnd, steps in enumerate(sched.rank_program(comm.rank)):
        tag = tags.get(rnd, tag)
        if not steps:
            continue
        reqs: List = []
        plain_recvs: List = []
        reduce_recvs: List = []
        copies: List = []
        for code, peer, offset, length in steps:
            if code == COPY:
                copies.append((peer, offset, length))
                continue
            buf = view(offset, length)
            if code == SEND and stage:
                _stage(comm, buf, length)
            elif code == RECV:
                plain_recvs.append((buf, length))
            elif code != SEND:
                tmp = np.empty_like(buf)
                reduce_recvs.append((buf, tmp, length))
                buf = tmp
            post = comm.isend if code == SEND else comm.irecv
            reqs += [post(buf[off:off + ln], ln, peer, tag)
                     for off, ln in chunk_layout(length, channels) if ln]
        if reqs:
            waitall(reqs)
        if stage:
            for buf, length in plain_recvs:
                _stage(comm, buf, length)
        for dst, tmp, length in reduce_recvs:
            if stage:
                _stage(comm, tmp, length)
            apply_reduce(op, dst, tmp)
        for dst, src, length in copies:
            view(dst, length)[:] = view(src, length)


def _collective(comm, kind: str, count: int, sendbuf, recvbuf,
                op: Optional[str] = None, root: int = 0) -> None:
    """One contiguous collective: the policy's pick for a tunable kind,
    else the native schedule, in place on the receive buffer where its
    layout is the workspace's (:data:`_IN_PLACE`). A native all_gather is
    :func:`allgatherv`. A selection's protocol knob does not apply to MPI."""
    p, r, policy = comm.size, comm.rank, comm.engine.coll
    topo = _coll_topology(comm)
    picked = None
    if policy is not None and p > 1 and kind in _TUNABLE_KINDS:
        nbytes = count * as_array(sendbuf).dtype.itemsize
        picked = policy.select("mpi", kind, int(nbytes), topo, engine=comm.engine)
    if kind == "all_gather" and (picked is None or picked == "native"):
        return allgatherv(comm, sendbuf, count, recvbuf, [count] * p,
                          [i * count for i in range(p)])
    sched = topo.schedule(str(picked or "native"), kind, count, root)
    note = f"{kind}[{sched.algorithm}]"
    data = None
    if kind != "broadcast" or r == root:
        n_in = p * count if kind == "reduce_scatter" else count
        _record(comm, sendbuf, "r", 0, n_in, note)
        data = as_array(sendbuf, n_in)
    size = workspace_size(kind, p, count)
    in_place = kind in _IN_PLACE and sched.workspace == size
    work = (as_array(recvbuf, size) if in_place
            else np.zeros(sched.workspace, as_array(sendbuf).dtype))
    if data is not None and not (in_place and kind == "broadcast"):
        init_workspace(kind, r, p, count, data, root, sched.workspace, out=work)
    _run_schedule(comm, sched, lambda o, n: work[o:o + n], op,
                  picked.channels if picked else 1)
    out = extract_output(kind, r, p, count, work, root)
    if out is None or (kind == "broadcast" and r == root):
        return
    _record(comm, recvbuf, "w", 0, out.size, note)
    if not in_place:
        as_array(recvbuf, out.size)[:] = out


def _vector(comm, kind: str, sendbuf, recvbuf, counts: Tuple[int, ...],
            displs: Sequence[int], root: int) -> None:
    """A native gather_v/scatter_v on the caller's buffers: the root
    addresses the vector's blocks at their displacements and copies its
    own; any other rank touches only its own block, in its own buffer
    (its ``displs`` become zeros: no other block is addressed)."""
    r, gather, note = comm.rank, kind == "gather_v", f"{kind}[native]"
    mine, at_root = counts[r], r == root
    if not at_root:
        displs = [0] * len(counts)
    vec = as_array(recvbuf if gather == at_root else sendbuf)
    own = vec[displs[r]:displs[r] + mine]
    if gather:
        _record(comm, sendbuf, "r", 0, mine, note)
        if at_root:
            own[:] = as_array(sendbuf, mine)
    elif at_root:
        for d, c in zip(displs, counts):
            _record(comm, sendbuf, "r", d, c, note)
        as_array(recvbuf, mine)[:] = own
    offs = packed_offsets(counts)

    def view(offset: int, length: int) -> np.ndarray:
        b = bisect_right(offs, offset) - 1  # a zero-count block is empty
        return vec[displs[b] + offset - offs[b]:][:length]

    sched = _coll_topology(comm).schedule("native", kind, counts, root)
    _run_schedule(comm, sched, view, None)
    if not gather:
        _record(comm, recvbuf, "w", 0, mine, note)
    elif at_root:
        for d, c in zip(displs, counts):
            _record(comm, recvbuf, "w", d, c, note)


def barrier(comm) -> None:
    p, r = comm.size, comm.rank
    if p == 1:
        return
    tag = comm._next_coll_tag()
    k = 1
    while k < p:
        comm.sendrecv(_EMPTY, 0, (r + k) % p, _EMPTY, 0, (r - k) % p, tag)
        k *= 2


def bcast(comm, buf: BufferLike, count: int, root: int) -> None:
    _check_root(comm.size, root)
    _collective(comm, "broadcast", count, buf, buf, root=root)


def reduce(comm, sendbuf: BufferLike, recvbuf: Optional[BufferLike], count: int, op: str, root: int) -> None:
    _check_root(comm.size, root)
    _require(comm, root, recvbuf, "reduce: root must provide a receive buffer")
    _collective(comm, "reduce", count, sendbuf, recvbuf, op, root)


def allreduce(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int, op: str) -> None:
    _collective(comm, "all_reduce", count, sendbuf, recvbuf, op)


def gather(comm, sendbuf: BufferLike, recvbuf: Optional[BufferLike], count: int, root: int) -> None:
    gatherv(comm, sendbuf, count, recvbuf, [count] * comm.size,
            [i * count for i in range(comm.size)], root)


def gatherv(comm, sendbuf: BufferLike, sendcount: int, recvbuf: Optional[BufferLike],
            counts: Sequence[int], displs: Sequence[int], root: int) -> None:
    _check_root(comm.size, root)
    _require(comm, root, recvbuf, "gatherv: root must provide a receive buffer")
    counts = _check_layout(comm, "gatherv", counts, displs, sendcount,
                           recvbuf if comm.rank == root else None)
    _vector(comm, "gather_v", sendbuf, recvbuf, counts, displs, root)


def scatter(comm, sendbuf: Optional[BufferLike], recvbuf: BufferLike, count: int, root: int) -> None:
    scatterv(comm, sendbuf, [count] * comm.size,
             [i * count for i in range(comm.size)], recvbuf, count, root)


def scatterv(comm, sendbuf: Optional[BufferLike], counts: Sequence[int],
             displs: Sequence[int], recvbuf: BufferLike, recvcount: int, root: int) -> None:
    _check_root(comm.size, root)
    _require(comm, root, sendbuf, "scatterv: root must provide a send buffer")
    counts = _check_layout(comm, "scatterv", counts, displs, recvcount,
                           sendbuf if comm.rank == root else None)
    _vector(comm, "scatter_v", sendbuf, recvbuf, counts, displs, root)


def allgather(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int) -> None:
    _collective(comm, "all_gather", count, sendbuf, recvbuf)


def allgatherv(comm, sendbuf: BufferLike, sendcount: int, recvbuf: BufferLike,
               counts: Sequence[int], displs: Sequence[int]) -> None:
    """A gather-v to rank 0, then a public ``bcast`` of the whole vector,
    which a policy selects like any other broadcast."""
    counts = _check_layout(comm, "allgatherv", counts, displs, sendcount, recvbuf)
    _vector(comm, "gather_v", sendbuf, recvbuf, counts, displs, 0)
    bcast(comm, recvbuf, _extent(counts, displs), 0)


def reduce_scatter(comm, sendbuf: BufferLike, recvbuf: BufferLike,
                   count: int, op: str = "sum") -> None:
    """MPI_Reduce_scatter_block: each rank gets its ``count``-element chunk
    of the reduced ``size * count`` vector."""
    _collective(comm, "reduce_scatter", count, sendbuf, recvbuf, op)


def alltoall(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int) -> None:
    """Pairwise exchange; the workspace's halves are the caller's buffers
    and its MPI_Sendrecv pairs ride the P2P path, unstaged."""
    r, n = comm.rank, comm.size * count
    sarr, rarr = as_array(sendbuf), as_array(recvbuf)
    if sarr.size < n or rarr.size < n:
        raise MpiError(f"alltoall: buffers must hold {n} elements")
    sched = _coll_topology(comm).schedule("native", "all_to_all", count)
    _record(comm, sendbuf, "r", 0, n, "all_to_all[native]")
    rarr[r * count:(r + 1) * count] = sarr[r * count:(r + 1) * count]
    _run_schedule(comm, sched, lambda offset, length: (
        sarr[offset:offset + length] if offset < n
        else rarr[offset - n:offset - n + length]), None, stage=False)
    _record(comm, recvbuf, "w", 0, n, "all_to_all[native]")


def _check_root(size: int, root: int) -> None:
    if not 0 <= root < size:
        raise MpiError(f"root {root} out of range [0,{size})")


def _require(comm, root: int, buf: Optional[BufferLike], message: str) -> None:
    if comm.rank == root and buf is None:
        raise MpiError(message)


def _extent(counts: Sequence[int], displs: Sequence[int]) -> int:
    """Elements a vector layout spans: the end of its last non-empty block."""
    return max((d + c for c, d in zip(counts, displs) if c), default=0)


def _check_layout(comm, what: str, counts: Sequence[int], displs: Sequence[int],
                  mine: int, buf: Optional[BufferLike]) -> Tuple[int, ...]:
    """Validate a vector layout before anything is posted; the per-rank
    counts as a tuple. ``mine`` is this rank's own send/receive count and
    ``buf`` the vector buffer when this rank holds it."""
    size, r = comm.size, comm.rank
    if len(counts) != size or len(displs) != size:
        raise MpiError(f"{what}: counts/displs must have {size} entries")
    if any(c < 0 for c in counts):
        raise MpiError(f"{what}: negative count in vector collective")
    if any(d < 0 for d in displs):
        raise MpiError(f"{what}: negative displacement in vector collective")
    if mine != counts[r]:
        raise MpiError(f"{what}: rank {r} passes {mine} elements but counts[{r}] is {counts[r]}")
    if buf is not None and _extent(counts, displs) > as_array(buf).size:
        raise MpiError(f"{what}: a block runs past the end of the "
                       f"{as_array(buf).size}-element buffer")
    return tuple(int(c) for c in counts)
