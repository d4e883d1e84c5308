"""The collective Schedule IR (docs/COLLECTIVES.md).

A :class:`Schedule` is a backend-independent description of one collective
as synchronized *rounds* of per-rank steps over a scratch workspace:

- :class:`Send` / :class:`Recv` — move ``length`` workspace elements
  starting at ``offset`` to/from ``peer``;
- :class:`RecvReduce` — receive and fold into the workspace with the
  collective's reduction operator;
- :class:`Copy` — local workspace move (rotations, staging).

It stores them as integer columns, one entry per step; the step objects
are views (:attr:`Schedule.rounds`, :meth:`Schedule.rank_rounds`) that
pricing never builds.

Workspace layout is a fixed convention per collective kind (see
:func:`workspace_size` and :func:`init_workspace`), so every backend and
the pure-python executor agree on what a schedule means. Within one round
every send payload is snapshotted first, then receives land, then local
copies run in step order; rounds are barriers in the *data-flow* sense only
(a backend may overlap rounds as long as per-pair FIFO order holds, which
is what the MPI executor relies on).

This module also hosts the ring/chunk arithmetic the GPUCCL and GPUSHMEM
models share: :func:`ring_neighbors`, :func:`chunk_layout` and
:func:`ring_path_params`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KINDS",
    "Send",
    "Recv",
    "RecvReduce",
    "Copy",
    "Schedule",
    "ring_neighbors",
    "chunk_layout",
    "ring_path_params",
    "workspace_size",
    "packed_offsets",
    "execute_schedule",
    "reference_collective",
]

#: Canonical collective kinds handled by the engine. ``count`` semantics
#: follow the backend APIs: total elements for all_reduce/broadcast/reduce,
#: per-rank elements for all_gather/reduce_scatter, per-block elements for
#: all_to_all, and the tuple of per-rank counts for the vector kinds
#: (:data:`VECTOR_KINDS`), whose workspace packs the blocks in rank order.
KINDS = ("all_reduce", "all_gather", "broadcast", "reduce", "reduce_scatter",
         "gather_v", "scatter_v", "all_gather_v", "all_to_all")

VECTOR_KINDS = ("gather_v", "scatter_v", "all_gather_v")


#: Step codes of a schedule's ``code`` column.
SEND, RECV_REDUCE, RECV, COPY = range(4)


class _Step:
    __slots__ = ()


class Send(_Step):
    """Send ``length`` workspace elements at ``offset`` to ``peer``."""

    __slots__ = ("peer", "offset", "length")
    code = SEND

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Send(->{self.peer}, {self.offset}+{self.length})"


class Recv(_Step):
    """Receive ``length`` elements from ``peer`` into ``offset``."""

    __slots__ = ("peer", "offset", "length")
    code = RECV

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Recv(<-{self.peer}, {self.offset}+{self.length})"


class RecvReduce(_Step):
    """Receive ``length`` elements from ``peer`` and reduce into ``offset``."""

    __slots__ = ("peer", "offset", "length")
    code = RECV_REDUCE

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecvReduce(<-{self.peer}, {self.offset}+{self.length})"


class Copy(_Step):
    """Local workspace copy of ``length`` elements from ``src`` to ``dst``
    (stored with ``dst`` as its peer and ``src`` as its offset)."""

    __slots__ = ("src", "dst", "length")
    code = COPY
    peer = property(lambda self: self.dst)
    offset = property(lambda self: self.src)

    def __init__(self, src: int, dst: int, length: int):
        self.src = src
        self.dst = dst
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Copy({self.src}->{self.dst}, {self.length})"


class Schedule:
    """A generated collective: per-rank step programs in global rounds.

    Stored as parallel integer columns in emission order (:attr:`columns`):
    round, rank, step code, peer, offset and length. A rank's program for a
    round is its steps of that round in emission order. :attr:`rounds` and
    :meth:`rank_rounds` are step-object views built on demand; a priced or
    executed schedule is frozen. :attr:`phases` holds the first round of
    each composed primitive (:meth:`new_phase`); an executor that tags its
    messages draws one tag per phase.
    """

    __slots__ = ("kind", "algorithm", "nranks", "count", "workspace", "n_rounds",
                 "phases", "compiled", "_rows", "_blocks", "_programs")

    def __init__(self, kind: str, algorithm: str, nranks: int, count: int,
                 workspace: Optional[int] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown collective kind {kind!r}")
        self.kind = kind
        self.algorithm = algorithm
        self.nranks = nranks
        self.count = count
        self.workspace = workspace_size(kind, nranks, count) if workspace is None else workspace
        self.n_rounds = 0
        self.phases: List[int] = [0]
        self._rows: List[int] = []  # steps added one at a time, 6 ints each
        self._blocks: List[np.ndarray] = []     # (6, n) column blocks
        self._programs: Dict[int, Tuple] = {}   # rank -> rank_program(rank)
        # (Topology, skeleton) of the last pricing, owned by
        # repro.coll.cost.schedule_cost.
        self.compiled = None

    def new_round(self, n: int = 1) -> int:
        """Open ``n`` new (initially empty) rounds; the first one's index."""
        self.n_rounds += n
        return self.n_rounds - n

    def new_phase(self) -> None:
        """Start the next primitive of a composition at the next round."""
        self.phases.append(self.n_rounds)

    def add(self, rnd: int, rank: int, step: _Step) -> None:
        """Append ``step`` to ``rank``'s program for round ``rnd``.

        Zero-length transfers are dropped on both sides (generators emit
        them symmetrically for ragged chunk layouts).
        """
        if step.length > 0:
            self._rows += (rnd, rank, step.code, step.peer, step.offset, step.length)

    def pair(self, rnd: int, src: int, dst: int, s_off: int, d_off: int,
             length: int, reduce: bool = False) -> None:
        """A matched Send at ``src`` and Recv (RecvReduce) at ``dst``."""
        if length > 0:
            self._rows += (rnd, src, SEND, dst, s_off, length,
                           rnd, dst, RECV_REDUCE if reduce else RECV, src, d_off, length)

    def steps(self, rnd, rank, code, peer, offset, length) -> None:
        """:meth:`add` for many steps, broadcast together, in C order."""
        cols = (rnd, rank, code, peer, offset, length)
        block = np.empty((6,) + np.broadcast(*cols).shape, np.int64)
        for row, col in zip(block, cols):
            row[...] = col
        self._append(block.reshape(6, -1))

    def pairs(self, rnd, src, dst, s_off, d_off, length, reduce=False) -> None:
        """:meth:`pair` for many pairs, broadcast together, in C order."""
        block = np.empty((6,) + np.broadcast(rnd, src, dst, s_off, d_off,
                                             length).shape + (2,), np.int64)
        for row, send, recv in zip(
                block, (rnd, src, SEND, dst, s_off, length),
                (rnd, dst, RECV_REDUCE if reduce else RECV, src, d_off, length)):
            row[..., 0] = send
            row[..., 1] = recv
        self._append(block.reshape(6, -1))

    def _append(self, block: Optional[np.ndarray] = None) -> None:
        """Move the rows added one at a time, then ``block``, to the blocks."""
        if self._rows:
            self._blocks.append(np.fromiter(self._rows, np.int64,
                                            len(self._rows)).reshape(-1, 6).T)
            self._rows = []
        if block is not None:
            keep = block[5] > 0
            self._blocks.append(block if keep.all() else block.compress(keep, axis=1))

    @property
    def columns(self) -> np.ndarray:
        """``(6, steps)`` int64: round, rank, code, peer, offset, length."""
        self._append()
        if len(self._blocks) != 1:
            self._blocks = [np.concatenate(self._blocks, axis=1) if self._blocks
                            else np.empty((6, 0), np.int64)]
        return self._blocks[0]

    def rank_program(self, rank: int) -> Tuple[Tuple[Tuple[int, int, int, int], ...], ...]:
        """One rank's ``(code, peer, offset, length)`` steps, one tuple per
        round (empty rounds included); built once per schedule."""
        prog = self._programs.get(rank)
        if prog is None:
            cols = self.columns
            idx = np.flatnonzero(cols[1] == rank)
            idx = idx[np.argsort(cols[0, idx], kind="stable")]
            rounds: List[List] = [[] for _ in range(self.n_rounds)]
            for rnd, _, *step in cols[:, idx].T.tolist():
                rounds[rnd].append(tuple(step))
            prog = self._programs[rank] = tuple(map(tuple, rounds))
        return prog

    def rank_rounds(self, rank: int) -> List[List[_Step]]:
        """The per-round step lists of one rank (empty rounds included)."""
        return [[Copy(off, peer, n) if code == COPY
                 else (Send, RecvReduce, Recv)[code](peer, off, n)
                 for code, peer, off, n in steps] for steps in self.rank_program(rank)]

    @property
    def rounds(self) -> List[Dict[int, List[_Step]]]:
        """Every round as ``{rank: [steps]}``, ranks in ascending order."""
        out: List[Dict[int, List[_Step]]] = [{} for _ in range(self.n_rounds)]
        for rank in range(self.nranks):
            for rnd, steps in zip(out, self.rank_rounds(rank)):
                if steps:
                    rnd[rank] = steps
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Schedule {self.algorithm}:{self.kind} p={self.nranks} "
                f"count={self.count} rounds={self.n_rounds}>")


# --------------------------------------------------------------------- #
# Shared ring/chunk arithmetic (hoisted from the backends).
# --------------------------------------------------------------------- #


def ring_neighbors(rank: int, nranks: int) -> Tuple[int, int]:
    """(previous, next) neighbour of ``rank`` on the canonical ring."""
    return (rank - 1) % nranks, (rank + 1) % nranks


def chunk_layout(count: int, parts: int) -> List[Tuple[int, int]]:
    """Balanced partition of ``count`` elements into ``parts`` chunks.

    Returns ``[(offset, length), ...]``; the remainder is spread over the
    leading chunks, so lengths differ by at most one and ragged (including
    zero-length) chunks appear only at the tail.
    """
    base, rem = divmod(count, parts)
    out = []
    offset = 0
    for i in range(parts):
        length = base + (1 if i < rem else 0)
        out.append((offset, length))
        offset += length
    return out


def ring_path_params(cluster, gpu_ids: Sequence[int]) -> Tuple[float, float]:
    """(hop_latency, bottleneck_bandwidth) of the ring over ``gpu_ids``.

    The slowest hop governs a ring schedule: latency is the max path
    latency over successive hops and bandwidth the min path bandwidth —
    the arithmetic GPUCCL's ring model and GPUSHMEM's team model share.
    """
    p = len(gpu_ids)
    if p <= 1:
        return 0.0, float("inf")
    hops = [cluster.path(gpu_ids[i], gpu_ids[(i + 1) % p]) for i in range(p)]
    return max(h.latency for h in hops), min(h.bandwidth for h in hops)


# --------------------------------------------------------------------- #
# Workspace conventions.
# --------------------------------------------------------------------- #


def packed_offsets(counts: Sequence[int]) -> List[int]:
    """Where each rank's block starts in a vector kind's packed workspace."""
    return [sum(counts[:r]) for r in range(len(counts))]


def workspace_size(kind: str, nranks: int, count) -> int:
    """Scratch elements each rank needs to execute a schedule of ``kind``."""
    if kind in ("all_reduce", "broadcast", "reduce"):
        return count
    if kind in VECTOR_KINDS:
        return sum(count)
    if kind == "all_to_all":
        return 2 * nranks * count  # the send blocks, then the receive blocks
    return nranks * count  # all_gather / reduce_scatter


def init_workspace(kind: str, rank: int, nranks: int, count,
                   data: Optional[np.ndarray], root: int, workspace: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Build one rank's initial workspace from its input ``data``: its own
    block for gather_v/all_gather_v, the packed vector at a scatter_v root,
    None where a rank contributes nothing (then ``out`` is required).
    ``out``: write the input into this array instead of a zeroed one."""
    work = np.zeros(workspace, dtype=data.dtype) if out is None else out
    if kind in ("all_reduce", "reduce"):
        work[:count] = data[:count]
    elif kind == "broadcast":
        if rank == root:
            work[:count] = data[:count]
    elif kind == "all_gather":
        work[rank * count:(rank + 1) * count] = data[:count]
    elif kind in ("gather_v", "all_gather_v"):
        at = sum(count[:rank])
        work[at:at + count[rank]] = data[:count[rank]]
    elif kind == "scatter_v":
        if rank == root:
            work[:] = data[:workspace]
    else:  # reduce_scatter, all_to_all: the whole input vector
        work[:nranks * count] = data[:nranks * count]
        if kind == "all_to_all":  # and the block a rank keeps, received
            at = (nranks + rank) * count
            work[at:at + count] = data[rank * count:(rank + 1) * count]
    return work


def extract_output(kind: str, rank: int, nranks: int, count,
                   work: np.ndarray, root: int) -> Optional[np.ndarray]:
    """Read one rank's result back out of its final workspace."""
    if kind in ("all_reduce", "broadcast"):
        return work[:count]
    if kind in ("reduce", "gather_v"):
        return work[:workspace_size(kind, nranks, count)] if rank == root else None
    if kind in ("all_gather", "all_gather_v"):
        return work[:workspace_size(kind, nranks, count)]
    if kind == "scatter_v":
        at = sum(count[:rank])
        return work[at:at + count[rank]]
    if kind == "all_to_all":
        return work[nranks * count:2 * nranks * count]
    return work[rank * count:(rank + 1) * count]  # reduce_scatter


# --------------------------------------------------------------------- #
# Pure-python executor + naive reference (the correctness oracle).
# --------------------------------------------------------------------- #


def _apply_op(op: str, acc: np.ndarray, other: np.ndarray) -> None:
    from ..backends.common import apply_reduce

    apply_reduce(op, acc, other)


def execute_schedule(sched: Schedule, inputs: Sequence[np.ndarray],
                     op: str = "sum", root: int = 0) -> List[Optional[np.ndarray]]:
    """Run a schedule functionally over per-rank numpy inputs.

    Validates the IR while executing: every send must be consumed by a
    matching receive of the same length within its round (per-pair FIFO),
    and no message may be left over. Used by the equivalence tests and by
    generator self-checks; backends have their own executors.
    """
    p = sched.nranks
    if len(inputs) != p:
        raise ValueError(f"need {p} inputs, got {len(inputs)}")
    dtype = next(np.asarray(a).dtype for a in inputs if a is not None)
    work = [
        init_workspace(sched.kind, r, p, sched.count,
                       None if inputs[r] is None else np.asarray(inputs[r]),
                       root, sched.workspace, out=np.zeros(sched.workspace, dtype))
        for r in range(p)
    ]
    programs = [sched.rank_program(r) for r in range(p)]
    for rnd_idx in range(sched.n_rounds):
        steps = [(rank, prog[rnd_idx]) for rank, prog in enumerate(programs)
                 if prog[rnd_idx]]
        # 1. Snapshot every send payload at round entry.
        mail: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for rank, prog in steps:
            for code, peer, off, length in prog:
                if code == SEND:
                    mail.setdefault((rank, peer), []).append(
                        work[rank][off:off + length].copy())
        # 2. Receives land (FIFO per ordered pair), then local copies.
        for rank, prog in steps:
            for code, peer, off, length in prog:
                if code == RECV or code == RECV_REDUCE:
                    queue = mail.get((peer, rank))
                    if not queue:
                        raise ValueError(
                            f"round {rnd_idx}: rank {rank} receives from "
                            f"{peer} but no message was sent"
                        )
                    payload = queue.pop(0)
                    if payload.size != length:
                        raise ValueError(
                            f"round {rnd_idx}: size mismatch {peer}->{rank}: "
                            f"sent {payload.size}, expected {length}"
                        )
                    dst = work[rank][off:off + length]
                    if code == RECV_REDUCE:
                        _apply_op(op, dst, payload)
                    else:
                        dst[:] = payload
        for rank, prog in steps:
            for code, dst, src, length in prog:
                if code == COPY:
                    work[rank][dst:dst + length] = work[rank][src:src + length]
        leftover = {k: len(v) for k, v in mail.items() if v}
        if leftover:
            raise ValueError(f"round {rnd_idx}: unconsumed messages {leftover}")
    return [
        extract_output(sched.kind, r, p, sched.count, work[r], root)
        for r in range(p)
    ]


def reference_collective(kind: str, inputs: Sequence[Optional[np.ndarray]],
                         op: str = "sum", root: int = 0,
                         counts: Optional[Sequence[int]] = None
                         ) -> List[Optional[np.ndarray]]:
    """The naive (rank-ordered) result every schedule must reproduce.

    Inputs follow :func:`init_workspace`: a scatter_v root holds the packed
    vector, which ``counts`` splits, and every other rank None; every
    all_to_all rank holds its ``p`` send blocks."""
    p = len(inputs)
    arrs = [None if a is None else np.asarray(a) for a in inputs]
    if kind in ("all_reduce", "reduce", "reduce_scatter"):
        total = arrs[0].copy()
        for r in range(1, p):
            _apply_op(op, total, arrs[r])
        if kind == "all_reduce":
            return [total.copy() for _ in range(p)]
        if kind == "reduce":
            return [total.copy() if r == root else None for r in range(p)]
        count = total.size // p
        return [total[r * count:(r + 1) * count].copy() for r in range(p)]
    if kind == "broadcast":
        return [arrs[root].copy() for _ in range(p)]
    if kind in ("all_gather", "all_gather_v"):
        gathered = np.concatenate(arrs)
        return [gathered.copy() for _ in range(p)]
    if kind == "gather_v":
        return [np.concatenate(arrs) if r == root else None for r in range(p)]
    if kind == "scatter_v":
        offs = packed_offsets(counts)
        return [arrs[root][o:o + c].copy() for o, c in zip(offs, counts)]
    if kind == "all_to_all":
        blocks = [np.split(a, p) for a in arrs]
        return [np.concatenate([blocks[src][r] for src in range(p)])
                for r in range(p)]
    raise ValueError(f"unknown collective kind {kind!r}")
