"""MPI collectives, built on the library's own point-to-point layer.

Algorithms follow what MPI implementations use on GPU buffers:

- barrier: dissemination (ceil(log2 p) rounds);
- bcast/reduce: binomial trees;
- allreduce: reduce-to-0 + bcast (the non-pipelined GPU path);
- gather(v)/scatter(v): linear fan-in/out at the root;
- allgather(v): gatherv-to-0 + bcast of the full vector — the fallback many
  GPU-aware MPIs take for device buffers, and the reason the paper's Fig. 6
  shows MPI far behind NCCL on the CG solver's AllGatherv;
- alltoall: pairwise exchange rounds.

All message tags are drawn from the negative internal tag space and are
derived from a per-communicator collective sequence number, which is
consistent across ranks because MPI requires collectives to be invoked in
the same order by every member.

Large device buffers additionally pay a host-staging copy on each side of
every hop (:func:`_stage`): unlike the P2P path, MPI collective algorithms
generally do not ride GPUDirect RDMA and bounce GPU payloads through host
bounce buffers. This is the mechanism behind the paper's Fig. 6, where the
CG solver's MPI AllGatherv is far slower than GPUCCL's grouped P2P while
MPI's small-message collectives (the dot-product AllReduces) stay cheap.

When a collective policy is installed on the engine (``launch(coll=...)``,
see :mod:`repro.coll`), the tunable collectives — bcast, allreduce,
allgather, reduce_scatter — may instead execute a generated
:class:`~repro.coll.Schedule` as a real isend/irecv step program
(:func:`_run_schedule`): the data genuinely moves along the selected
algorithm's routes, unlike the fused-kernel backends which only re-price
their completion time. ``"native"`` (the MPI default) keeps the legacy
algorithms above and their exact traces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...errors import MpiError
from ..common import BufferLike, apply_reduce, as_array
from .request import waitall

__all__ = [
    "barrier", "bcast", "reduce", "allreduce", "gather", "gatherv",
    "scatter", "scatterv", "allgather", "allgatherv", "alltoall",
    "reduce_scatter",
]

_EMPTY = np.empty(0, np.uint8)


def _record(comm, buf, kind: str, start: int, count: int, note: str) -> None:
    """Sanitizer record in the calling rank's context.

    Collectives here are blocking and fully synchronized at return, so
    caller-context records are correctly ordered; they matter because the
    tree/fan algorithms pass numpy *views* of device buffers into the P2P
    layer, which the sanitizer cannot attribute back to the allocation.
    """
    san = comm.engine.sanitizer
    if san is not None:
        san.record(buf, kind, start, count, note=note)


def _stage(comm, buf: BufferLike, count: int) -> None:
    """Charge the device<->host bounce-buffer copy of the collective path
    for large device payloads (GPUDirect is not used by MPI collectives
    unless the profile's ``collective_gpu_direct`` toggle says otherwise)."""
    profile = comm._profile
    if profile.collective_gpu_direct:
        return
    arr = as_array(buf)
    nbytes = count * arr.dtype.itemsize
    if nbytes > profile.eager_threshold:
        comm._charge(nbytes / profile.eager_copy_bandwidth)


def _staged_send(comm, buf: BufferLike, count: int, dst: int, tag: int) -> None:
    _stage(comm, buf, count)
    comm.send(buf, count, dst, tag)


def _staged_recv(comm, buf: BufferLike, count: int, src: int, tag: int) -> None:
    comm.recv(buf, count, src, tag)
    _stage(comm, buf, count)


# --------------------------------------------------------------------- #
# Generated-schedule execution (repro.coll).
# --------------------------------------------------------------------- #


def _coll_topology(comm):
    """The communicator's coll Topology: one object for all its ranks (the
    world board hands every member the same one), so a schedule is
    generated once per call site, not once per rank."""
    topo = getattr(comm, "_coll_topo", None)
    if topo is None:
        from ...coll import Topology

        world = comm.ctx.world
        topo = comm._coll_topo = world.board.once(
            ("coll_topo", comm.comm_id),
            lambda: Topology(comm.ctx.rank_ctx.cluster,
                             [world.gpu_of(g) for g in comm.members]))
    return topo


def _select_schedule(comm, kind: str, count: int, itemsize: int,
                     root: int = 0):
    """``(Schedule, channels)`` when the engine policy picks a non-native
    algorithm for this call, else None (stay on the legacy code path).

    The selected channel count stripes every schedule message into that
    many isend/irecv chunks (:func:`_run_schedule`); wire protocols are a
    GPU-kernel concept and do not apply to MPI, so a selection's protocol
    knob is ignored here.
    """
    policy = comm.engine.coll
    if policy is None or comm.size <= 1:
        return None
    topo = _coll_topology(comm)
    selected = policy.select("mpi", kind, int(count * itemsize), topo,
                             engine=comm.engine)
    if selected is None or selected == "native":
        return None
    sched = topo.schedule(str(selected), kind, count, root)
    if sched is None:
        return None
    return sched, selected.channels


def _run_schedule(comm, sched, work: np.ndarray, op: Optional[str],
                  channels: int = 1) -> None:
    """Execute one rank's step program of a Schedule over ``work``.

    A single collective tag covers every round: the matcher is FIFO per
    ordered (src, dst) pair and each round's messages balance exactly
    (validated by the pure-python executor in the tests), so a fast rank
    posting the next round early can never match a message across rounds.

    The rank's program is built once per schedule
    (:meth:`~repro.coll.Schedule.rank_program`). ``channels > 1`` stripes
    each Send/Recv/RecvReduce into that many
    chunks (balanced :func:`~repro.coll.schedule.chunk_layout`, identical
    on both sides, so per-pair FIFO keeps chunk order); the data lands
    bitwise where the unstriped program would put it.
    """
    from ...coll.schedule import COPY, RECV, SEND, chunk_layout

    tag = comm._next_coll_tag()
    for steps in sched.rank_program(comm.rank):
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
            if code == SEND:
                buf = work[offset:offset + length]
                _stage(comm, buf, length)
                post = comm.isend
            else:
                buf = (work[offset:offset + length] if code == RECV
                       else np.empty(length, work.dtype))
                post = comm.irecv
            if channels == 1:
                reqs.append(post(buf, length, peer, tag))
            else:
                for off, ln in chunk_layout(length, channels):
                    if ln:
                        reqs.append(post(buf[off:off + ln], ln, peer, tag))
            if code == RECV:
                plain_recvs.append(length)
            elif code != SEND:
                reduce_recvs.append((offset, length, buf))
        if reqs:
            waitall(reqs)
        for length in plain_recvs:
            _stage(comm, work, length)
        for offset, length, tmp in reduce_recvs:
            _stage(comm, tmp, length)
            apply_reduce(op, work[offset:offset + length], tmp)
        for dst, src, length in copies:
            work[dst:dst + length] = work[src:src + length]


def _execute_schedule(comm, sched, sendbuf, recvbuf, count: int,
                      op: Optional[str], root: int, channels: int = 1) -> None:
    """Stage one rank's data through a host workspace, run the schedule,
    and write the result back into the caller's buffer.

    The schedule moves numpy workspace views through the P2P layer, which
    the sanitizer cannot attribute to the caller's device buffers, so the
    input read and output write are recorded here (the collective is fully
    synchronized at return, exactly like the legacy tree/fan algorithms).
    """
    from ...coll.schedule import extract_output, init_workspace

    p, r, kind = sched.nranks, comm.rank, sched.kind
    note = f"{kind}[{sched.algorithm}]"
    in_count = p * count if kind == "reduce_scatter" else count
    if kind != "broadcast" or r == root:
        _record(comm, sendbuf, "r", 0, in_count, note)
    work = init_workspace(kind, r, p, count, as_array(sendbuf), root,
                          sched.workspace)
    _run_schedule(comm, sched, work, op, channels)
    out = extract_output(kind, r, p, count, work, root)
    if out is not None:
        _record(comm, recvbuf, "w", 0, out.size, note)
        as_array(recvbuf, out.size)[:out.size] = out


def barrier(comm) -> None:
    p, r = comm.size, comm.rank
    if p == 1:
        return
    tag = comm._next_coll_tag()
    dummy = np.empty(0, np.uint8)
    k = 1
    while k < p:
        comm.sendrecv(_EMPTY, 0, (r + k) % p, dummy, 0, (r - k) % p, tag)
        k *= 2


def bcast(comm, buf: BufferLike, count: int, root: int) -> None:
    p, r = comm.size, comm.rank
    _check_root(p, root)
    if p == 1:
        return
    picked = _select_schedule(comm, "broadcast", count,
                              as_array(buf).dtype.itemsize, root)
    if picked is not None:
        sched, channels = picked
        _execute_schedule(comm, sched, buf, buf, count, None, root, channels)
        return
    tag = comm._next_coll_tag()
    vrank = (r - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            _staged_recv(comm, buf, count, (vrank - mask + root) % p, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            _staged_send(comm, buf, count, (vrank + mask + root) % p, tag)
        mask >>= 1


def reduce(comm, sendbuf: BufferLike, recvbuf: Optional[BufferLike], count: int, op: str, root: int) -> None:
    p, r = comm.size, comm.rank
    _check_root(p, root)
    tag = comm._next_coll_tag()
    vrank = (r - root) % p
    _record(comm, sendbuf, "r", 0, count, f"reduce[{op}]")
    acc = as_array(sendbuf, count).copy()
    tmp = np.empty_like(acc)
    mask = 1
    while mask < p:
        if vrank & mask:
            _staged_send(comm, acc, count, (vrank - mask + root) % p, tag)
            break
        peer = vrank + mask
        if peer < p:
            _staged_recv(comm, tmp, count, (peer + root) % p, tag)
            apply_reduce(op, acc, tmp)
        mask <<= 1
    if r == root:
        if recvbuf is None:
            raise MpiError("reduce: root must provide a receive buffer")
        _record(comm, recvbuf, "w", 0, count, f"reduce[{op}]")
        as_array(recvbuf, count)[:count] = acc


def allreduce(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int, op: str) -> None:
    picked = _select_schedule(comm, "all_reduce", count,
                              as_array(sendbuf).dtype.itemsize)
    if picked is not None:
        sched, channels = picked
        _execute_schedule(comm, sched, sendbuf, recvbuf, count, op, 0,
                          channels)
        return
    reduce(comm, sendbuf, recvbuf, count, op, root=0)
    bcast(comm, recvbuf, count, root=0)


def gather(comm, sendbuf: BufferLike, recvbuf: Optional[BufferLike], count: int, root: int) -> None:
    p = comm.size
    counts = [count] * p
    displs = [i * count for i in range(p)]
    gatherv(comm, sendbuf, count, recvbuf, counts, displs, root)


def gatherv(
    comm,
    sendbuf: BufferLike,
    sendcount: int,
    recvbuf: Optional[BufferLike],
    counts: Sequence[int],
    displs: Sequence[int],
    root: int,
) -> None:
    p, r = comm.size, comm.rank
    _check_root(p, root)
    _check_layout(p, counts, displs)
    tag = comm._next_coll_tag()
    if r == root:
        if recvbuf is None:
            raise MpiError("gatherv: root must provide a receive buffer")
        rarr = as_array(recvbuf)
        reqs = []
        for src in range(p):
            dst_view = rarr[displs[src] : displs[src] + counts[src]]
            if src == root:
                _record(comm, sendbuf, "r", 0, counts[root], "gatherv")
                dst_view[:] = as_array(sendbuf, counts[root])
            else:
                reqs.append(comm.irecv(dst_view, counts[src], src, tag))
        waitall(reqs)
        # The irecvs above landed in numpy views of recvbuf; record the
        # writes here, after waitall has ordered us behind every delivery.
        for src in range(p):
            _record(comm, recvbuf, "w", displs[src], counts[src], "gatherv")
            if src != root:
                _stage(comm, rarr[displs[src] :], counts[src])
    else:
        _staged_send(comm, sendbuf, sendcount, root, tag)


def scatter(comm, sendbuf: Optional[BufferLike], recvbuf: BufferLike, count: int, root: int) -> None:
    p = comm.size
    counts = [count] * p
    displs = [i * count for i in range(p)]
    scatterv(comm, sendbuf, counts, displs, recvbuf, count, root)


def scatterv(
    comm,
    sendbuf: Optional[BufferLike],
    counts: Sequence[int],
    displs: Sequence[int],
    recvbuf: BufferLike,
    recvcount: int,
    root: int,
) -> None:
    p, r = comm.size, comm.rank
    _check_root(p, root)
    _check_layout(p, counts, displs)
    tag = comm._next_coll_tag()
    if r == root:
        if sendbuf is None:
            raise MpiError("scatterv: root must provide a send buffer")
        sarr = as_array(sendbuf)
        reqs = []
        for dst in range(p):
            # isend gets a numpy view of sendbuf, so record the read here.
            _record(comm, sendbuf, "r", displs[dst], counts[dst], "scatterv")
            src_view = sarr[displs[dst] : displs[dst] + counts[dst]]
            if dst == root:
                _record(comm, recvbuf, "w", 0, counts[root], "scatterv")
                as_array(recvbuf, counts[root])[: counts[root]] = src_view
            else:
                _stage(comm, src_view, counts[dst])
                reqs.append(comm.isend(src_view, counts[dst], dst, tag))
        waitall(reqs)
    else:
        _staged_recv(comm, recvbuf, recvcount, root, tag)


def allgather(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int) -> None:
    picked = _select_schedule(comm, "all_gather", count,
                              as_array(sendbuf).dtype.itemsize)
    if picked is not None:
        sched, channels = picked
        _execute_schedule(comm, sched, sendbuf, recvbuf, count, None, 0,
                          channels)
        return
    p = comm.size
    counts = [count] * p
    displs = [i * count for i in range(p)]
    allgatherv(comm, sendbuf, count, recvbuf, counts, displs)


def allgatherv(
    comm,
    sendbuf: BufferLike,
    sendcount: int,
    recvbuf: BufferLike,
    counts: Sequence[int],
    displs: Sequence[int],
) -> None:
    # GPU-buffer fallback path: fan-in to rank 0, then broadcast the whole
    # vector. Deliberately *not* a pipelined ring — see module docstring.
    gatherv(comm, sendbuf, sendcount, recvbuf, counts, displs, root=0)
    total = max(d + c for d, c in zip(displs, counts))
    bcast(comm, recvbuf, total, root=0)


def reduce_scatter(comm, sendbuf: BufferLike, recvbuf: BufferLike,
                   count: int, op: str = "sum") -> None:
    """MPI_Reduce_scatter_block: each rank gets its ``count``-element chunk
    of the reduced ``size * count`` vector.

    The fallback algorithm matches the style of the other rooted paths:
    binomial reduce of the full vector to rank 0, then a linear scatter.
    """
    p, r = comm.size, comm.rank
    if p == 1:
        _record(comm, sendbuf, "r", 0, count, "reduce_scatter")
        _record(comm, recvbuf, "w", 0, count, "reduce_scatter")
        as_array(recvbuf, count)[:count] = as_array(sendbuf, count)
        return
    picked = _select_schedule(comm, "reduce_scatter", count,
                              as_array(sendbuf).dtype.itemsize)
    if picked is not None:
        sched, channels = picked
        _execute_schedule(comm, sched, sendbuf, recvbuf, count, op, 0,
                          channels)
        return
    total = p * count
    if r == 0:
        tmp = np.empty(total, as_array(sendbuf).dtype)
        reduce(comm, sendbuf, tmp, total, op, root=0)
        scatter(comm, tmp, recvbuf, count, root=0)
    else:
        reduce(comm, sendbuf, None, total, op, root=0)
        scatter(comm, None, recvbuf, count, root=0)


def alltoall(comm, sendbuf: BufferLike, recvbuf: BufferLike, count: int) -> None:
    p, r = comm.size, comm.rank
    tag = comm._next_coll_tag()
    sarr, rarr = as_array(sendbuf), as_array(recvbuf)
    if sarr.size < p * count or rarr.size < p * count:
        raise MpiError(f"alltoall: buffers must hold {p * count} elements")
    # Pairwise exchange moves numpy views of both buffers, so record the
    # whole-buffer read up front and each received block as its blocking
    # sendrecv round completes.
    _record(comm, sendbuf, "r", 0, p * count, "alltoall")
    _record(comm, recvbuf, "w", r * count, count, "alltoall")
    rarr[r * count : (r + 1) * count] = sarr[r * count : (r + 1) * count]
    for k in range(1, p):
        dst, src = (r + k) % p, (r - k) % p
        comm.sendrecv(
            sarr[dst * count : (dst + 1) * count], count, dst,
            rarr[src * count : (src + 1) * count], count, src, tag,
        )
        _record(comm, recvbuf, "w", src * count, count, "alltoall")


def _check_root(size: int, root: int) -> None:
    if not 0 <= root < size:
        raise MpiError(f"root {root} out of range [0,{size})")


def _check_layout(size: int, counts: Sequence[int], displs: Sequence[int]) -> None:
    if len(counts) != size or len(displs) != size:
        raise MpiError(f"counts/displs must have {size} entries")
    if any(c < 0 for c in counts):
        raise MpiError("negative count in vector collective")
