"""Schedule generators: the algorithm catalogue (docs/COLLECTIVES.md).

Every generator produces a :class:`~repro.coll.schedule.Schedule` for one
``(kind, nranks, count)`` triple:

- ``ring`` — bandwidth-optimal chunked ring (reduce-scatter + allgather
  phases for allreduce, pipelined chunk rings for rooted collectives);
- ``tree`` — latency-optimal binomial tree;
- ``recdbl`` — recursive doubling / halving (any rank count for
  allreduce via the standard pre/post fold, power-of-two only for
  allgather and reduce-scatter);
- ``bruck`` — Bruck allgather (log-round, any rank count);
- ``hier`` — two-level hierarchical scheme per HiCCL: intra-node phase to
  per-node leaders, inter-node exchange among leaders, intra-node fan-out
  (requires a topology with at least two nodes).

``native`` is not in the catalogue: it is what MPI runs for every data
collective (:func:`_native`) — binomial broadcast and reduce, linear
gather-v/scatter-v at the root, and the compositions of those the
GPU-buffer path takes — so MPI executes, prices and link-checks one
schedule. GPUCCL's and GPUSHMEM's fused kernels run no schedule, but each
is priced by one: :data:`DEFAULT_ALGORITHM` names the schedule of the
library's own algorithm for every kind.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .schedule import COPY, KINDS, RECV, SEND, Schedule, chunk_layout

__all__ = ["ALGORITHMS", "CATALOGUE_KINDS", "DEFAULT_ALGORITHM",
           "KNOWN_ALGORITHMS", "generate", "is_applicable", "candidates"]

#: Generator names, in catalogue order.
ALGORITHMS = ("ring", "tree", "recdbl", "bruck", "hier")

#: The kinds the catalogue generates (``native`` generates every kind).
CATALOGUE_KINDS = ("all_reduce", "all_gather", "broadcast", "reduce",
                    "reduce_scatter")

#: backend -> kind -> the schedule that backend runs, and is priced by,
#: when no policy selects. GPUCCL runs its ring everywhere; GPUSHMEM
#: composes puts: a binomial tree for the rooted kinds, ceil(log2 p)
#: full-payload rounds (recursive doubling) for all_reduce, the p - 1
#: round put ring for all_gather and reduce_scatter, pairwise rounds for
#: all_to_all (priced, never selected); MPI runs ``native``.
DEFAULT_ALGORITHM = {
    "gpuccl": dict.fromkeys(CATALOGUE_KINDS, "ring"),
    "gpushmem": {"broadcast": "tree", "reduce": "tree",
                 "all_reduce": "recdbl", "all_gather": "ring",
                 "reduce_scatter": "ring", "all_to_all": "native"},
    "mpi": dict.fromkeys(KINDS, "native"),
}

#: Every algorithm name a policy may select: the catalogue, then the
#: defaults outside it (MPI's ``native``).
KNOWN_ALGORITHMS = tuple(dict.fromkeys(
    ALGORITHMS + tuple(a for kinds in DEFAULT_ALGORITHM.values()
                       for a in kinds.values())))


def _ceil_log2(n: int) -> int:
    r = 0
    while (1 << r) < n:
        r += 1
    return r


# --------------------------------------------------------------------- #
# Reusable phase builders over an arbitrary participant list. ``members``
# is ordered by virtual rank: members[0] is the phase root.
# --------------------------------------------------------------------- #


def _binomial_bcast(sched: Schedule, members: Sequence[int], off: int,
                    length: int, first: Optional[int] = None) -> None:
    n = len(members)
    n_rounds = _ceil_log2(n)
    if first is None:
        first = sched.new_round(n_rounds)
    for t in range(n_rounds):
        for v in range(1 << t):
            u = v + (1 << t)
            if u < n:
                sched.pair(first + t, members[v], members[u], off, off, length)


def _binomial_reduce(sched: Schedule, members: Sequence[int], off: int,
                     length: int, first: Optional[int] = None) -> None:
    n = len(members)
    n_rounds = _ceil_log2(n)
    if first is None:
        first = sched.new_round(n_rounds)
    for t in range(n_rounds - 1, -1, -1):
        rnd = first + (n_rounds - 1) - t
        for v in range(1 << t):
            u = v + (1 << t)
            if u < n:
                sched.pair(rnd, members[u], members[v], off, off, length,
                           reduce=True)


def _recdbl_allreduce(sched: Schedule, members: Sequence[int],
                      length: int) -> None:
    """Recursive doubling allreduce over ``members`` (any count).

    Non-power-of-two counts use the standard fold: the leading ``2*rem``
    members pair up (odd folds into even) before the exchange rounds and
    the evens fan the result back out afterwards.
    """
    n = len(members)
    m = n.bit_length() - 1
    pow2 = 1 << m
    rem = n - pow2
    if rem:
        rnd = sched.new_round()
        for i in range(rem):
            sched.pair(rnd, members[2 * i + 1], members[2 * i], 0, 0, length,
                       reduce=True)

    def active(idx: int) -> int:
        return members[2 * idx] if idx < rem else members[idx + rem]

    for t in range(m):
        rnd = sched.new_round()
        for idx in range(pow2):
            pidx = idx ^ (1 << t)
            if pidx > idx:
                a, b = active(idx), active(pidx)
                sched.pair(rnd, a, b, 0, 0, length, reduce=True)
                sched.pair(rnd, b, a, 0, 0, length, reduce=True)
    if rem:
        rnd = sched.new_round()
        for i in range(rem):
            sched.pair(rnd, members[2 * i], members[2 * i + 1], 0, 0, length)


# --------------------------------------------------------------------- #
# Ring.
# --------------------------------------------------------------------- #


def _ring(kind: str, p: int, count: int, root: int) -> Schedule:
    """All rounds of a phase at once, as grids whose rows are rounds (``s``
    or ``t``) and whose columns are hops (``r`` or ``d``): C order is the
    order the steps are emitted in."""
    sched = Schedule(kind, "ring", p, count)
    if p <= 1:
        return sched
    r = np.arange(p)
    s = np.arange(p - 1)[:, None]
    if kind == "all_reduce":
        offs, lens = np.array(chunk_layout(count, p)).T
        rs = sched.new_round(p - 1)  # reduce-scatter phase
        idx = (r - s) % p
        sched.pairs(rs + s, r, (r + 1) % p, offs[idx], offs[idx], lens[idx],
                    reduce=True)
        ag = sched.new_round(p - 1)  # allgather phase
        idx = (r + 1 - s) % p
        sched.pairs(ag + s, r, (r + 1) % p, offs[idx], offs[idx], lens[idx])
    elif kind in ("all_gather", "reduce_scatter"):
        first = sched.new_round(p - 1)
        off = (r - s - (kind == "reduce_scatter")) % p * count
        sched.pairs(first + s, r, (r + 1) % p, off, off, count,
                    reduce=kind == "reduce_scatter")
    else:  # pipelined chunk rings: each chunk crosses one hop per round
        offs, lens = np.array(chunk_layout(count, p)).T
        t = np.arange(2 * p - 2)[:, None]
        first = sched.new_round(2 * p - 2)
        if kind == "broadcast":
            d = np.arange(p - 1)
            src, dst, k = (root + d) % p, (root + d + 1) % p, t - d
        else:  # reduce: the broadcast pipeline reversed, folding toward root
            d = np.arange(1, p)
            src, dst, k = (root + d) % p, (root + d - 1) % p, t - (p - 1 - d)
        live = (k >= 0) & (k < p)
        k = np.where(live, k, 0)
        sched.pairs(first + t, src, dst, offs[k], offs[k], np.where(live, lens[k], 0),
                    reduce=kind == "reduce")
    return sched


# --------------------------------------------------------------------- #
# Binomial tree.
# --------------------------------------------------------------------- #


def _tree(kind: str, p: int, count: int, root: int) -> Schedule:
    sched = Schedule(kind, "tree", p, count)
    if p <= 1:
        return sched
    by_vrank = [(root + v) % p for v in range(p)]
    if kind == "broadcast":
        _binomial_bcast(sched, by_vrank, 0, count)
    elif kind == "reduce":
        _binomial_reduce(sched, by_vrank, 0, count)
    elif kind == "all_reduce":
        _binomial_reduce(sched, list(range(p)), 0, count)
        _binomial_bcast(sched, list(range(p)), 0, count)
    elif kind == "all_gather":
        # Binomial gather of contiguous block ranges to rank 0, then a
        # binomial broadcast of the assembled vector.
        n_rounds = _ceil_log2(p)
        for t in range(n_rounds):
            rnd = sched.new_round()
            step = 1 << t
            for v in range(step, p, 2 * step):
                blocks = min(step, p - v)
                sched.pair(rnd, v, v - step, v * count, v * count,
                           blocks * count)
        _binomial_bcast(sched, list(range(p)), 0, p * count)
    else:  # reduce_scatter: reduce the full vector to 0, then scatter
        _binomial_reduce(sched, list(range(p)), 0, p * count)
        rnd = sched.new_round()
        for r in range(1, p):
            sched.pair(rnd, 0, r, r * count, r * count, count)
    return sched


# --------------------------------------------------------------------- #
# Recursive doubling / halving.
# --------------------------------------------------------------------- #


def _recdbl(kind: str, p: int, count: int, root: int) -> Optional[Schedule]:
    pow2 = p & (p - 1) == 0
    if kind == "all_reduce":
        sched = Schedule(kind, "recdbl", p, count)
        if p > 1:
            _recdbl_allreduce(sched, list(range(p)), count)
        return sched
    if not pow2:
        return None
    sched = Schedule(kind, "recdbl", p, count)
    if p <= 1:
        return sched
    m = _ceil_log2(p)
    if kind == "all_gather":
        for t in range(m):
            rnd = sched.new_round()
            step = 1 << t
            for r in range(p):
                q = r ^ step
                if q > r:
                    rbase = (r >> t) << t
                    qbase = (q >> t) << t
                    sched.pair(rnd, r, q, rbase * count, rbase * count,
                               step * count)
                    sched.pair(rnd, q, r, qbase * count, qbase * count,
                               step * count)
        return sched
    if kind == "reduce_scatter":
        cur = p
        while cur > 1:
            half = cur // 2
            rnd = sched.new_round()
            for r in range(p):
                g = (r // cur) * cur
                if r < g + half:
                    q = r + half
                    sched.pair(rnd, r, q, (g + half) * count,
                               (g + half) * count, half * count, reduce=True)
                    sched.pair(rnd, q, r, g * count, g * count,
                               half * count, reduce=True)
            cur = half
        return sched
    return None


# --------------------------------------------------------------------- #
# Bruck allgather.
# --------------------------------------------------------------------- #


def _bruck(kind: str, p: int, count: int, root: int) -> Optional[Schedule]:
    if kind != "all_gather":
        return None
    # Double workspace: [0, p*count) is the rotated working area, the top
    # half stages the un-rotated result before the final copy back.
    sched = Schedule(kind, "bruck", p, count, workspace=2 * p * count)
    if p <= 1:
        return sched
    r = np.arange(p)
    sched.steps(sched.new_round(), r[1:], COPY, 0, r[1:] * count, count)
    k = 1
    while k < p:
        sched.pairs(sched.new_round(), r, (r - k) % p, 0, k * count,
                    min(k, p - k) * count)
        k <<= 1
    # Each rank's p block copies into the staging half, then the copy back.
    rank = r[:, None]
    dst = np.hstack(((p + (rank + r) % p) * count, np.zeros((p, 1), np.int64)))
    sched.steps(sched.new_round(), rank, COPY, dst, np.append(r * count, p * count),
                np.append(np.full(p, count), p * count))
    return sched


# --------------------------------------------------------------------- #
# Two-level hierarchical (HiCCL-style leaders).
# --------------------------------------------------------------------- #


def _hier_groups(topo, root: int):
    """Per-node rank groups with the phase leader first in each group."""
    groups = [list(g) for g in topo.groups()]
    ordered = []
    root_gi = 0
    for gi, g in enumerate(groups):
        if root in g:
            g = [root] + [r for r in g if r != root]
            root_gi = gi
        ordered.append(g)
    # Root's group leads the inter-node phase for rooted collectives.
    ordered = [ordered[root_gi]] + ordered[:root_gi] + ordered[root_gi + 1:]
    return ordered


def _leader_ring(sched: Schedule, groups: List[List[int]], count: int,
                 reduce: bool) -> None:
    """Ring over the leaders at node granularity: in round ``s`` leader
    ``i`` passes every member block of group ``(i - s) % nl`` (one group
    further back when reducing) to leader ``i + 1``."""
    nl = len(groups)
    leaders = np.array([g[0] for g in groups])
    sizes = np.array([len(g) for g in groups])
    flat = np.concatenate(groups)
    gi = ((np.arange(nl) - np.arange(nl - 1)[:, None] - reduce) % nl).ravel()
    hop = np.repeat(np.arange(gi.size), sizes[gi])  # s * nl + i, per block
    skip = np.cumsum(sizes)[gi] - np.cumsum(sizes[gi])  # group start - hop start
    off = flat[np.repeat(skip, sizes[gi]) + np.arange(hop.size)] * count
    sched.pairs(sched.new_round(nl - 1) + hop // nl, leaders[hop % nl],
                leaders[(hop + 1) % nl], off, off, count, reduce=reduce)


def _hier(kind: str, p: int, count: int, root: int, topo) -> Optional[Schedule]:
    if topo is None:
        return None
    groups = _hier_groups(topo, root)
    if len(groups) < 2:
        return None
    leaders = [g[0] for g in groups]
    sched = Schedule(kind, "hier", p, count)

    def intra_rounds() -> int:
        return sched.new_round(max(_ceil_log2(len(g)) for g in groups))

    if kind == "all_reduce":
        first = intra_rounds()
        for g in groups:
            _binomial_reduce(sched, g, 0, count, first)
        _recdbl_allreduce(sched, leaders, count)
        first = intra_rounds()
        for g in groups:
            _binomial_bcast(sched, g, 0, count, first)
    elif kind == "broadcast":
        _binomial_bcast(sched, leaders, 0, count)
        first = intra_rounds()
        for g in groups:
            _binomial_bcast(sched, g, 0, count, first)
    elif kind in ("all_gather", "reduce_scatter"):
        # Members fan in to their leader, the leaders' ring, fan back out.
        rest = np.array([r for g in groups for r in g[1:]], np.int64)
        head = np.array([g[0] for g in groups for _ in g[1:]], np.int64)
        if kind == "all_gather":
            sched.pairs(sched.new_round(), rest, head, rest * count,
                        rest * count, count)
            _leader_ring(sched, groups, count, False)
            sched.pairs(sched.new_round(), head, rest, 0, 0, p * count)
        else:
            sched.pairs(sched.new_round(), rest, head, 0, 0, p * count,
                        reduce=True)
            _leader_ring(sched, groups, count, True)
            sched.pairs(sched.new_round(), head, rest, rest * count,
                        rest * count, count)
    else:
        return None
    return sched


# --------------------------------------------------------------------- #
# MPI's native algorithms.
# --------------------------------------------------------------------- #


def _mpi_bcast(sched: Schedule, p: int, root: int, length: int) -> None:
    """MPI's binomial broadcast: virtual rank ``v`` hears from ``v`` with
    its lowest set bit cleared, then passes on with masks descending (the
    catalogue ``tree`` sends with masks ascending)."""
    n_rounds = _ceil_log2(p)
    first = sched.new_round(n_rounds)
    for t in range(n_rounds):
        mask = 1 << (n_rounds - 1 - t)
        v = np.arange(0, p - mask, 2 * mask)
        sched.pairs(first + t, (v + root) % p, (v + mask + root) % p, 0, 0,
                    length)


def _mpi_reduce(sched: Schedule, p: int, root: int, length: int) -> None:
    """MPI's binomial reduce, the mirror of :func:`_mpi_bcast`: with masks
    ascending, ``v + mask`` folds into ``v``."""
    n_rounds = _ceil_log2(p)
    first = sched.new_round(n_rounds)
    for t in range(n_rounds):
        mask = 1 << t
        v = np.arange(0, p - mask, 2 * mask)
        sched.pairs(first + t, (v + mask + root) % p, (v + root) % p, 0, 0,
                    length, reduce=True)


def _linear(sched: Schedule, p: int, root: int, offs, lens,
            gather: bool) -> None:
    """Every other rank's block to (gather) or from the root in one round,
    in rank order at the root."""
    others = np.delete(np.arange(p), root)
    src, dst = (others, root) if gather else (root, others)
    offs, lens = np.broadcast_to(offs, p)[others], np.broadcast_to(lens, p)[others]
    sched.pairs(sched.new_round(), src, dst, offs, offs, lens)


def _pairwise(sched: Schedule, p: int, count: int) -> None:
    """Pairwise all_to_all: in round ``k`` rank ``r`` receives from
    ``r - k``, then sends to ``r + k``."""
    k = np.arange(1, p)[:, None, None]
    rank = np.arange(p)[:, None]
    src, dst = (rank - k) % p, (rank + k) % p
    sched.steps(sched.new_round(p - 1) + k - 1, rank, np.array([RECV, SEND]),
                np.concatenate((src, dst), axis=2),
                np.concatenate(((p + src) * count, dst * count), axis=2), count)


def _native(kind: str, p: int, count, root: int) -> Schedule:
    sched = Schedule(kind, "native", p, count)
    if p <= 1:
        return sched
    if kind == "broadcast":
        _mpi_bcast(sched, p, root, count)
    elif kind == "reduce":
        _mpi_reduce(sched, p, root, count)
    elif kind == "all_reduce":  # reduce to 0, then broadcast
        _mpi_reduce(sched, p, 0, count)
        sched.new_phase()
        _mpi_bcast(sched, p, 0, count)
    elif kind == "reduce_scatter":  # reduce the vector to 0, then scatter
        _mpi_reduce(sched, p, 0, p * count)
        sched.new_phase()
        _linear(sched, p, 0, np.arange(p) * count, count, gather=False)
    elif kind == "all_to_all":
        _pairwise(sched, p, count)
    else:  # gather_v, scatter_v; all_gather(_v): gather-v to 0, broadcast
        lens = np.full(p, count) if kind == "all_gather" else np.array(count)
        offs = np.cumsum(lens) - lens
        if kind in ("gather_v", "scatter_v"):
            _linear(sched, p, root, offs, lens, gather=kind == "gather_v")
        else:
            _linear(sched, p, 0, offs, lens, gather=True)
            sched.new_phase()
            _mpi_bcast(sched, p, 0, int(lens.sum()))
    return sched


# --------------------------------------------------------------------- #
# Entry points.
# --------------------------------------------------------------------- #


def is_applicable(algorithm: str, kind: str, nranks: int, topo=None) -> bool:
    """Whether ``algorithm`` can generate ``kind`` at this size/topology."""
    if nranks <= 1 or kind not in CATALOGUE_KINDS:
        return False
    if algorithm == "ring" or algorithm == "tree":
        return True
    if algorithm == "recdbl":
        if kind == "all_reduce":
            return True
        return kind in ("all_gather", "reduce_scatter") and nranks & (nranks - 1) == 0
    if algorithm == "bruck":
        return kind == "all_gather"
    if algorithm == "hier":
        return (topo is not None and len(topo.groups()) >= 2
                and kind in ("all_reduce", "all_gather", "broadcast",
                             "reduce_scatter"))
    return False


def candidates(kind: str, nranks: int, topo=None) -> List[str]:
    """Catalogue algorithms applicable to this collective instance."""
    return [a for a in ALGORITHMS if is_applicable(a, kind, nranks, topo)]


def generate(algorithm: str, kind: str, nranks: int, count: int, *,
             topo=None, root: int = 0) -> Optional[Schedule]:
    """Build the schedule, or None when the combination is inapplicable.
    ``native`` applies to every kind at every size (an empty schedule for
    one rank)."""
    if algorithm == "native":
        return _native(kind, nranks, count, root)
    if not is_applicable(algorithm, kind, nranks, topo):
        return None
    if algorithm == "ring":
        return _ring(kind, nranks, count, root)
    if algorithm == "tree":
        return _tree(kind, nranks, count, root)
    if algorithm == "recdbl":
        return _recdbl(kind, nranks, count, root)
    if algorithm == "bruck":
        return _bruck(kind, nranks, count, root)
    if algorithm == "hier":
        return _hier(kind, nranks, count, root, topo)
    raise ValueError(f"unknown algorithm {algorithm!r}")
