"""The collective Schedule IR (docs/COLLECTIVES.md).

A :class:`Schedule` is a backend-independent description of one collective
as synchronized *rounds* of per-rank steps over a scratch workspace:

- :class:`Send` / :class:`Recv` — move ``length`` workspace elements
  starting at ``offset`` to/from ``peer``;
- :class:`RecvReduce` — receive and fold into the workspace with the
  collective's reduction operator;
- :class:`Copy` — local workspace move (rotations, staging).

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
    "execute_schedule",
    "reference_collective",
]

#: Canonical collective kinds handled by the engine. ``count`` semantics
#: follow the backend APIs: total elements for all_reduce/broadcast/reduce,
#: per-rank elements for all_gather/reduce_scatter.
KINDS = ("all_reduce", "all_gather", "broadcast", "reduce", "reduce_scatter")


class _Step:
    __slots__ = ()


class Send(_Step):
    """Send ``length`` workspace elements at ``offset`` to ``peer``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Send(->{self.peer}, {self.offset}+{self.length})"


class Recv(_Step):
    """Receive ``length`` elements from ``peer`` into ``offset``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Recv(<-{self.peer}, {self.offset}+{self.length})"


class RecvReduce(_Step):
    """Receive ``length`` elements from ``peer`` and reduce into ``offset``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecvReduce(<-{self.peer}, {self.offset}+{self.length})"


class Copy(_Step):
    """Local workspace copy of ``length`` elements from ``src`` to ``dst``."""

    __slots__ = ("src", "dst", "length")

    def __init__(self, src: int, dst: int, length: int):
        self.src = src
        self.dst = dst
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Copy({self.src}->{self.dst}, {self.length})"


class Schedule:
    """A generated collective: per-rank step programs in global rounds."""

    __slots__ = ("kind", "algorithm", "nranks", "count", "workspace", "rounds",
                 "compiled")

    def __init__(self, kind: str, algorithm: str, nranks: int, count: int,
                 workspace: Optional[int] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown collective kind {kind!r}")
        self.kind = kind
        self.algorithm = algorithm
        self.nranks = nranks
        self.count = count
        self.workspace = workspace_size(kind, nranks, count) if workspace is None else workspace
        self.rounds: List[Dict[int, List[_Step]]] = []
        # (Topology, skeleton) of the last pricing, owned by
        # repro.coll.cost.schedule_cost; a priced schedule is frozen.
        self.compiled = None

    def new_round(self) -> Dict[int, List[_Step]]:
        """Open a new (initially empty) round and return it."""
        rnd: Dict[int, List[_Step]] = {}
        self.rounds.append(rnd)
        return rnd

    def add(self, rnd: Dict[int, List[_Step]], rank: int, step: _Step) -> None:
        """Append ``step`` to ``rank``'s program for round ``rnd``.

        Zero-length transfers are dropped on both sides (generators emit
        them symmetrically for ragged chunk layouts).
        """
        if step.length > 0:
            rnd.setdefault(rank, []).append(step)

    def rank_rounds(self, rank: int) -> List[List[_Step]]:
        """The per-round step lists of one rank (empty rounds included)."""
        return [rnd.get(rank, []) for rnd in self.rounds]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

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


def workspace_size(kind: str, nranks: int, count: int) -> int:
    """Scratch elements each rank needs to execute a schedule of ``kind``."""
    if kind in ("all_reduce", "broadcast", "reduce"):
        return count
    return nranks * count  # all_gather / reduce_scatter


def init_workspace(kind: str, rank: int, nranks: int, count: int,
                   data: np.ndarray, root: int, workspace: int) -> np.ndarray:
    """Build one rank's initial workspace from its input ``data``."""
    work = np.zeros(workspace, dtype=data.dtype)
    if kind in ("all_reduce", "reduce"):
        work[:count] = data[:count]
    elif kind == "broadcast":
        if rank == root:
            work[:count] = data[:count]
    elif kind == "all_gather":
        work[rank * count:(rank + 1) * count] = data[:count]
    else:  # reduce_scatter
        work[:nranks * count] = data[:nranks * count]
    return work


def extract_output(kind: str, rank: int, nranks: int, count: int,
                   work: np.ndarray, root: int) -> Optional[np.ndarray]:
    """Read one rank's result back out of its final workspace."""
    if kind in ("all_reduce", "broadcast"):
        return work[:count]
    if kind == "reduce":
        return work[:count] if rank == root else None
    if kind == "all_gather":
        return work[:nranks * count]
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
    work = [
        init_workspace(sched.kind, r, p, sched.count, np.asarray(inputs[r]),
                       root, sched.workspace)
        for r in range(p)
    ]
    for rnd_idx, rnd in enumerate(sched.rounds):
        # 1. Snapshot every send payload at round entry.
        mail: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, Send):
                    mail.setdefault((rank, st.peer), []).append(
                        work[rank][st.offset:st.offset + st.length].copy()
                    )
        # 2. Receives land (FIFO per ordered pair), then local copies.
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, (Recv, RecvReduce)):
                    queue = mail.get((st.peer, rank))
                    if not queue:
                        raise ValueError(
                            f"round {rnd_idx}: rank {rank} receives from "
                            f"{st.peer} but no message was sent"
                        )
                    payload = queue.pop(0)
                    if payload.size != st.length:
                        raise ValueError(
                            f"round {rnd_idx}: size mismatch {st.peer}->{rank}: "
                            f"sent {payload.size}, expected {st.length}"
                        )
                    dst = work[rank][st.offset:st.offset + st.length]
                    if isinstance(st, RecvReduce):
                        _apply_op(op, dst, payload)
                    else:
                        dst[:] = payload
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, Copy):
                    work[rank][st.dst:st.dst + st.length] = \
                        work[rank][st.src:st.src + st.length]
        leftover = {k: len(v) for k, v in mail.items() if v}
        if leftover:
            raise ValueError(f"round {rnd_idx}: unconsumed messages {leftover}")
    return [
        extract_output(sched.kind, r, p, sched.count, work[r], root)
        for r in range(p)
    ]


def reference_collective(kind: str, inputs: Sequence[np.ndarray],
                         op: str = "sum", root: int = 0) -> List[Optional[np.ndarray]]:
    """The naive (rank-ordered) result every schedule must reproduce."""
    p = len(inputs)
    arrs = [np.asarray(a) for a in inputs]
    if kind in ("all_reduce", "reduce"):
        total = arrs[0].copy()
        for r in range(1, p):
            _apply_op(op, total, arrs[r])
        if kind == "all_reduce":
            return [total.copy() for _ in range(p)]
        return [total.copy() if r == root else None for r in range(p)]
    if kind == "broadcast":
        return [arrs[root].copy() for _ in range(p)]
    if kind == "all_gather":
        gathered = np.concatenate(arrs)
        return [gathered.copy() for _ in range(p)]
    if kind == "reduce_scatter":
        count = arrs[0].size // p
        total = arrs[0].copy()
        for r in range(1, p):
            _apply_op(op, total, arrs[r])
        return [total[r * count:(r + 1) * count].copy() for r in range(p)]
    raise ValueError(f"unknown collective kind {kind!r}")
