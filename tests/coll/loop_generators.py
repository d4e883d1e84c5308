"""The loop generators: one step object per step, one loop per round.

The same catalogue as ``repro.coll.algorithms``, written as one loop per
round that emits one step object per step: the reference that
``test_rank_programs.py`` compares every generated rank program against.
:class:`LoopSchedule` stores the rounds as dicts of step lists.

``native`` is MPI's own collectives written as an MPI library runs them:
one loop per rank, each blocking send or receive placed in the round its
mask or peer names.
"""

from typing import Dict, List, Optional, Sequence

from repro.coll.schedule import (Copy, Recv, RecvReduce, Send, chunk_layout,
                                 workspace_size)


class LoopSchedule:
    """Rounds as ``{rank: [steps]}`` dicts, steps in emission order."""

    def __init__(self, kind, algorithm, nranks, count, workspace=None):
        self.kind, self.algorithm = kind, algorithm
        self.nranks, self.count = nranks, count
        self.workspace = (workspace_size(kind, nranks, count)
                          if workspace is None else workspace)
        self.rounds: List[Dict[int, list]] = []
        self.phases = [0]

    def new_phase(self) -> None:
        self.phases.append(len(self.rounds))

    def new_round(self) -> Dict[int, list]:
        rnd: Dict[int, list] = {}
        self.rounds.append(rnd)
        return rnd

    def add(self, rnd, rank, step) -> None:
        if step.length > 0:
            rnd.setdefault(rank, []).append(step)

    def rank_rounds(self, rank):
        return [rnd.get(rank, []) for rnd in self.rounds]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


Schedule = LoopSchedule


def _ceil_log2(n: int) -> int:
    r = 0
    while (1 << r) < n:
        r += 1
    return r


def _pair(sched: Schedule, rnd: Dict, src: int, dst: int, s_off: int,
          d_off: int, length: int, reduce: bool = False) -> None:
    sched.add(rnd, src, Send(dst, s_off, length))
    step = RecvReduce(src, d_off, length) if reduce else Recv(src, d_off, length)
    sched.add(rnd, dst, step)


# --------------------------------------------------------------------- #
# Reusable phase builders over an arbitrary participant list. ``members``
# is ordered by virtual rank: members[0] is the phase root.
# --------------------------------------------------------------------- #


def _binomial_bcast(sched: Schedule, members: Sequence[int], off: int,
                    length: int, rounds: Optional[List[Dict]] = None) -> None:
    n = len(members)
    n_rounds = _ceil_log2(n)
    if rounds is None:
        rounds = [sched.new_round() for _ in range(n_rounds)]
    for t in range(n_rounds):
        for v in range(1 << t):
            u = v + (1 << t)
            if u < n:
                _pair(sched, rounds[t], members[v], members[u], off, off, length)


def _binomial_reduce(sched: Schedule, members: Sequence[int], off: int,
                     length: int, rounds: Optional[List[Dict]] = None) -> None:
    n = len(members)
    n_rounds = _ceil_log2(n)
    if rounds is None:
        rounds = [sched.new_round() for _ in range(n_rounds)]
    for t in range(n_rounds - 1, -1, -1):
        rnd = rounds[(n_rounds - 1) - t]
        for v in range(1 << t):
            u = v + (1 << t)
            if u < n:
                _pair(sched, rnd, members[u], members[v], off, off, length,
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
            _pair(sched, rnd, members[2 * i + 1], members[2 * i], 0, 0,
                  length, reduce=True)

    def active(idx: int) -> int:
        return members[2 * idx] if idx < rem else members[idx + rem]

    for t in range(m):
        rnd = sched.new_round()
        for idx in range(pow2):
            pidx = idx ^ (1 << t)
            if pidx > idx:
                a, b = active(idx), active(pidx)
                _pair(sched, rnd, a, b, 0, 0, length, reduce=True)
                _pair(sched, rnd, b, a, 0, 0, length, reduce=True)
    if rem:
        rnd = sched.new_round()
        for i in range(rem):
            _pair(sched, rnd, members[2 * i], members[2 * i + 1], 0, 0, length)


# --------------------------------------------------------------------- #
# Ring.
# --------------------------------------------------------------------- #


def _ring(kind: str, p: int, count: int, root: int) -> Schedule:
    sched = Schedule(kind, "ring", p, count)
    if p <= 1:
        return sched
    if kind == "all_reduce":
        chunks = chunk_layout(count, p)
        for s in range(p - 1):  # reduce-scatter phase
            rnd = sched.new_round()
            for r in range(p):
                off, length = chunks[(r - s) % p]
                _pair(sched, rnd, r, (r + 1) % p, off, off, length, reduce=True)
        for s in range(p - 1):  # allgather phase
            rnd = sched.new_round()
            for r in range(p):
                off, length = chunks[(r + 1 - s) % p]
                _pair(sched, rnd, r, (r + 1) % p, off, off, length)
    elif kind == "all_gather":
        for s in range(p - 1):
            rnd = sched.new_round()
            for r in range(p):
                idx = (r - s) % p
                _pair(sched, rnd, r, (r + 1) % p, idx * count, idx * count, count)
    elif kind == "reduce_scatter":
        for s in range(p - 1):
            rnd = sched.new_round()
            for r in range(p):
                idx = (r - s - 1) % p
                _pair(sched, rnd, r, (r + 1) % p, idx * count, idx * count,
                      count, reduce=True)
    elif kind == "broadcast":
        chunks = chunk_layout(count, p)
        for t in range(len(chunks) + p - 2):
            rnd = sched.new_round()
            for d in range(p - 1):
                k = t - d
                if 0 <= k < len(chunks):
                    off, length = chunks[k]
                    _pair(sched, rnd, (root + d) % p, (root + d + 1) % p,
                          off, off, length)
    else:  # reduce: the broadcast pipeline reversed, folding toward root
        chunks = chunk_layout(count, p)
        for t in range(len(chunks) + p - 2):
            rnd = sched.new_round()
            for d in range(1, p):
                k = t - (p - 1 - d)
                if 0 <= k < len(chunks):
                    off, length = chunks[k]
                    _pair(sched, rnd, (root + d) % p, (root + d - 1) % p,
                          off, off, length, reduce=True)
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
                _pair(sched, rnd, v, v - step, v * count, v * count,
                      blocks * count)
        _binomial_bcast(sched, list(range(p)), 0, p * count)
    else:  # reduce_scatter: reduce the full vector to 0, then scatter
        _binomial_reduce(sched, list(range(p)), 0, p * count)
        rnd = sched.new_round()
        for r in range(1, p):
            _pair(sched, rnd, 0, r, r * count, r * count, count)
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
                    _pair(sched, rnd, r, q, rbase * count, rbase * count,
                          step * count)
                    _pair(sched, rnd, q, r, qbase * count, qbase * count,
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
                    _pair(sched, rnd, r, q, (g + half) * count,
                          (g + half) * count, half * count, reduce=True)
                    _pair(sched, rnd, q, r, g * count, g * count,
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
    rnd = sched.new_round()
    for r in range(1, p):
        sched.add(rnd, r, Copy(r * count, 0, count))
    k = 1
    while k < p:
        blocks = min(k, p - k)
        rnd = sched.new_round()
        for r in range(p):
            _pair(sched, rnd, r, (r - k) % p, 0, k * count, blocks * count)
        k <<= 1
    rnd = sched.new_round()
    for r in range(p):
        for j in range(p):
            sched.add(rnd, r, Copy(j * count, (p + (r + j) % p) * count, count))
        sched.add(rnd, r, Copy(p * count, 0, p * count))
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


def _hier(kind: str, p: int, count: int, root: int, topo) -> Optional[Schedule]:
    if topo is None:
        return None
    groups = _hier_groups(topo, root)
    if len(groups) < 2:
        return None
    leaders = [g[0] for g in groups]
    sched = Schedule(kind, "hier", p, count)

    def intra_rounds() -> List[Dict]:
        return [sched.new_round()
                for _ in range(max(_ceil_log2(len(g)) for g in groups))]

    if kind == "all_reduce":
        rounds = intra_rounds()
        for g in groups:
            _binomial_reduce(sched, g, 0, count, rounds[:_ceil_log2(len(g))])
        _recdbl_allreduce(sched, leaders, count)
        rounds = intra_rounds()
        for g in groups:
            _binomial_bcast(sched, g, 0, count, rounds[:_ceil_log2(len(g))])
    elif kind == "broadcast":
        _binomial_bcast(sched, leaders, 0, count)
        rounds = intra_rounds()
        for g in groups:
            _binomial_bcast(sched, g, 0, count, rounds[:_ceil_log2(len(g))])
    elif kind == "all_gather":
        nl = len(leaders)
        rnd = sched.new_round()
        for g in groups:
            for r in g[1:]:
                _pair(sched, rnd, r, g[0], r * count, r * count, count)
        for s in range(nl - 1):  # ring over leaders at node granularity
            rnd = sched.new_round()
            for i in range(nl):
                for m in groups[(i - s) % nl]:
                    _pair(sched, rnd, leaders[i], leaders[(i + 1) % nl],
                          m * count, m * count, count)
        rnd = sched.new_round()
        for g in groups:
            for r in g[1:]:
                _pair(sched, rnd, g[0], r, 0, 0, p * count)
    elif kind == "reduce_scatter":
        nl = len(leaders)
        rnd = sched.new_round()
        for g in groups:
            for r in g[1:]:
                _pair(sched, rnd, r, g[0], 0, 0, p * count, reduce=True)
        for s in range(nl - 1):  # ring reduce-scatter over node block sets
            rnd = sched.new_round()
            for i in range(nl):
                for m in groups[(i - s - 1) % nl]:
                    _pair(sched, rnd, leaders[i], leaders[(i + 1) % nl],
                          m * count, m * count, count, reduce=True)
        rnd = sched.new_round()
        for g in groups:
            for r in g[1:]:
                _pair(sched, rnd, g[0], r, r * count, r * count, count)
    else:
        return None
    return sched


# --------------------------------------------------------------------- #
# MPI's native collectives: the hand-written per-rank loops.
# --------------------------------------------------------------------- #


def _mpi_bcast(sched: Schedule, p: int, root: int, length: int) -> None:
    """Binomial: receive from the parent at the lowest set bit of the
    virtual rank, then send with masks descending."""
    n = _ceil_log2(p)
    rounds = [sched.new_round() for _ in range(n)]
    for r in range(p):
        vrank = (r - root) % p
        mask = 1
        while mask < p:
            if vrank & mask:
                sched.add(rounds[n - mask.bit_length()], r,
                          Recv((vrank - mask + root) % p, 0, length))
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < p:
                sched.add(rounds[n - mask.bit_length()], r,
                          Send((vrank + mask + root) % p, 0, length))
            mask >>= 1


def _mpi_reduce(sched: Schedule, p: int, root: int, length: int) -> None:
    """Binomial, masks ascending: fold in each child, then send to the
    parent."""
    rounds = [sched.new_round() for _ in range(_ceil_log2(p))]
    for r in range(p):
        vrank = (r - root) % p
        mask = 1
        while mask < p:
            rnd = rounds[mask.bit_length() - 1]
            if vrank & mask:
                sched.add(rnd, r, Send((vrank - mask + root) % p, 0, length))
                break
            if vrank + mask < p:
                sched.add(rnd, r, RecvReduce((vrank + mask + root) % p, 0, length))
            mask <<= 1


def _mpi_gatherv(sched: Schedule, p: int, root: int, counts) -> None:
    """Linear: the root receives every other block in rank order."""
    rnd = sched.new_round()
    offs = [sum(counts[:r]) for r in range(p)]
    for r in range(p):
        if r != root:
            sched.add(rnd, r, Send(root, offs[r], counts[r]))
            continue
        for src in range(p):
            if src != root:
                sched.add(rnd, root, Recv(src, offs[src], counts[src]))


def _mpi_scatterv(sched: Schedule, p: int, root: int, counts) -> None:
    """Linear: the root sends every other block in rank order."""
    rnd = sched.new_round()
    offs = [sum(counts[:r]) for r in range(p)]
    for r in range(p):
        if r != root:
            sched.add(rnd, r, Recv(root, offs[r], counts[r]))
            continue
        for dst in range(p):
            if dst != root:
                sched.add(rnd, root, Send(dst, offs[dst], counts[dst]))


def _native(kind: str, p: int, count, root: int) -> Schedule:
    sched = Schedule(kind, "native", p, count)
    if p <= 1:
        return sched
    if kind == "broadcast":
        _mpi_bcast(sched, p, root, count)
    elif kind == "reduce":
        _mpi_reduce(sched, p, root, count)
    elif kind == "all_reduce":
        _mpi_reduce(sched, p, 0, count)
        sched.new_phase()
        _mpi_bcast(sched, p, 0, count)
    elif kind == "gather_v":
        _mpi_gatherv(sched, p, root, count)
    elif kind == "scatter_v":
        _mpi_scatterv(sched, p, root, count)
    elif kind in ("all_gather", "all_gather_v"):
        counts = [count] * p if kind == "all_gather" else count
        _mpi_gatherv(sched, p, 0, counts)
        sched.new_phase()
        _mpi_bcast(sched, p, 0, sum(counts))
    elif kind == "reduce_scatter":
        _mpi_reduce(sched, p, 0, p * count)
        sched.new_phase()
        _mpi_scatterv(sched, p, 0, [count] * p)
    else:  # all_to_all: pairwise sendrecv rounds, the receive posted first
        rounds = [sched.new_round() for _ in range(p - 1)]
        for r in range(p):
            for k in range(1, p):
                src, dst = (r - k) % p, (r + k) % p
                sched.add(rounds[k - 1], r, Recv(src, (p + src) * count, count))
                sched.add(rounds[k - 1], r, Send(dst, dst * count, count))
    return sched


GENERATORS = {"ring": _ring, "tree": _tree, "recdbl": _recdbl,
              "bruck": _bruck, "hier": _hier, "native": _native}


def generate(algorithm, kind, nranks, count, *, topo=None, root=0):
    """The loop generator's schedule (callers check applicability)."""
    if algorithm == "hier":
        return _hier(kind, nranks, count, root, topo)
    return GENERATORS[algorithm](kind, nranks, count, root)
