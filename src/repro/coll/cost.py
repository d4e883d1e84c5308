"""Alpha-beta cost model over Cluster paths (docs/COLLECTIVES.md).

:class:`Topology` is the communicator-shaped view of a
:class:`~repro.hardware.cluster.Cluster`: rank -> GPU placement, per-node
rank groups (what the hierarchical generator keys on) and memoized
``(latency, bandwidth, per_message_overhead)`` triples per rank pair. Its
:meth:`Topology.signature` string is the tuning-table key — two
communicators with the same machine, size and per-node layout share
selections. One Topology per communicator lives for the run and owns
everything derived from the placement: the generated schedules
(:meth:`Topology.schedule`) and the per-backend duration models
(:func:`repro.coll.models.model_for`), so the policy, the backends and
every rank of the communicator draw on the same objects.

:func:`schedule_cost` prices a schedule round by round: each rank pays
alpha + per-message overhead + bytes/beta for its sends (sender-side
serialization, so fan-outs cost what they should), a memory-bandwidth
term for reductions and local copies, and the round costs the maximum
over ranks. The first pricing of a schedule compiles it to its distinct
rank programs with path parameters resolved (:func:`_compile`); every
pricing after that touches one representative per program. This
deliberately ignores link contention — it is a ranking
function for the tuner, not a replacement for the event-driven link
occupancy the backends charge at execution time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .algorithms import generate
from .schedule import COPY, RECV_REDUCE, SEND, Schedule

__all__ = [
    "Topology",
    "ProtocolSpec",
    "PROTOCOLS",
    "PROTOCOL_SPECS",
    "CHANNEL_COUNTS",
    "protocol_spec",
    "schedule_cost",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """Wire-protocol behaviour knobs ("Demystifying NCCL", PAPERS.md).

    ``bw_factor`` is the fraction of path bandwidth the protocol's framing
    leaves for payload (LL interleaves a 4B flag with every 4B of data,
    LL128 spends 8B of every 128B line on flags), ``overhead_factor``
    scales the per-message overhead (flag-embedded protocols skip most of
    the per-message setup), and ``rendezvous_factor`` adds that many extra
    path latencies per message for the ready-to-receive handshake only the
    bandwidth-optimized Simple protocol performs.
    """

    name: str
    bw_factor: float
    overhead_factor: float
    rendezvous_factor: float


#: Protocol catalogue, latency-optimized to bandwidth-optimized.
PROTOCOL_SPECS: Dict[str, ProtocolSpec] = {
    # 4B data + 4B flag per 8B line: half bandwidth, no rendezvous, and
    # the flag write doubles as the arrival signal (no message setup).
    "LL": ProtocolSpec("LL", 0.5, 0.0, 0.0),
    # 120B data per 128B line: ~95% bandwidth, partial setup cost.
    "LL128": ProtocolSpec("LL128", 0.9375, 0.5, 0.0),
    # Full-bandwidth pipelined chunking, but every message pays a full
    # rendezvous round trip before the payload moves.
    "Simple": ProtocolSpec("Simple", 1.0, 1.0, 2.0),
}

PROTOCOLS: Tuple[str, ...] = tuple(PROTOCOL_SPECS)

#: Channel ("rail") counts the tuner explores. Channels divide a message
#: across parallel FIFOs that share the same physical wire, so they only
#: recover bandwidth a single channel leaves on the table (``bw_scale``)
#: while multiplying per-message overheads.
CHANNEL_COUNTS: Tuple[int, ...] = (1, 2, 4)


def protocol_spec(name: Union[str, ProtocolSpec, None]) -> Optional[ProtocolSpec]:
    """Resolve a protocol name to its spec (``None`` passes through)."""
    if name is None or isinstance(name, ProtocolSpec):
        return name
    try:
        return PROTOCOL_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {PROTOCOLS}"
        ) from None


class Topology:
    """Rank -> GPU view of a cluster for one communicator."""

    def __init__(self, cluster, gpu_ids):
        self.cluster = cluster
        self.gpu_ids = list(gpu_ids)
        self.nranks = len(self.gpu_ids)
        self._params: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        self._pair_class: Optional[np.ndarray] = None  # see path_classes
        self._classes: Dict[Tuple[float, float, float], int] = {(0.0, 0.0, 0.0): 0}
        # (algorithm, kind, count or per-rank counts, root) -> schedule
        self._schedules: Dict[Tuple, Optional[Schedule]] = {}
        #: backend -> duration model, filled by repro.coll.models.model_for.
        self.models: Dict[str, object] = {}
        self._groups: List[List[int]] = []
        seen: Dict[int, List[int]] = {}
        for rank, gpu in enumerate(self.gpu_ids):
            node = cluster.node_of(gpu)
            if node not in seen:
                seen[node] = []
                self._groups.append(seen[node])
            seen[node].append(rank)
        self._signature = "{}/p{}/{}".format(
            cluster.machine.name, self.nranks,
            "+".join(str(len(g)) for g in self._groups),
        )

    def close(self) -> None:
        """Let go of the duration models (each points back here) and of
        the schedules generated for them; whoever built this topology for
        a job calls this when the job is over."""
        self.models.clear()
        self._schedules.clear()

    def groups(self) -> List[List[int]]:
        """Ranks grouped by node, in first-appearance order."""
        return self._groups

    def n_nodes(self) -> int:
        return len(self._groups)

    def path_params(self, a: int, b: int) -> Tuple[float, float, float]:
        """(latency, bandwidth, per_message_overhead) of the a->b path."""
        key = (a, b)
        cached = self._params.get(key)
        if cached is None:
            path = self.cluster.path(self.gpu_ids[a], self.gpu_ids[b])
            overhead = max(l.per_message_overhead for l in path.links)
            cached = (path.latency, path.bandwidth, overhead)
            self._params[key] = cached
        return cached

    def path_classes(self, pairs: np.ndarray) -> Tuple[np.ndarray, List[Tuple]]:
        """(class of each ``a * nranks + b`` pair, every class's
        :meth:`path_params` value): pairs with equal values share a class,
        and each pair is looked up once per Topology. Pair ``-1`` is class
        0, ``(0.0, 0.0, 0.0)``: what a step that sends nothing carries."""
        if self._pair_class is None:
            self._pair_class = np.full(self.nranks ** 2 + 1, -1, np.int64)
            self._pair_class[-1] = 0
        cls = self._pair_class[pairs]
        if (cls < 0).any():
            for q in set(pairs[cls < 0].tolist()):
                self._pair_class[q] = self._classes.setdefault(
                    self.path_params(*divmod(q, self.nranks)), len(self._classes))
            cls = self._pair_class[pairs]
        return cls, list(self._classes)

    def schedule(self, algorithm: str, kind: str, count: int,
                 root: int = 0) -> Optional[Schedule]:
        """``generate(algorithm, kind, nranks, count, root)`` over this
        placement, built once (None when inapplicable).

        The cache lives on the object, never under :meth:`signature`:
        split communicators with equal per-node counts but different
        rank -> node placement generate different ``hier`` schedules.
        """
        key = (algorithm, kind, count, root)
        if key not in self._schedules:
            self._schedules[key] = generate(
                algorithm, kind, self.nranks, count, topo=self, root=root)
        return self._schedules[key]

    def local_bandwidth(self) -> float:
        """Effective local copy/reduce bandwidth (read + write of HBM)."""
        return self.cluster.machine.gpu.mem_bandwidth / 2.0

    def signature(self) -> str:
        """Tuning-table key: machine / size / per-node rank layout."""
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Topology {self._signature}>"


def _dense(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, first)``: equal keys share an id in ``[0, len(first))`` and
    ``keys[first[i]]`` is id ``i``'s key."""
    order = keys.argsort()
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[order[1:]], keys[order[:-1]], out=new[1:])
    ids = np.empty(len(keys), np.int64)
    ids[order] = new.cumsum() - 1
    return ids, order[new]


def _compile(sched: Schedule, topo: Topology):
    """Reduce ``sched`` to what pricing on ``topo`` depends on.

    Returns ``(programs, rounds, order)``: the distinct rank programs of
    the whole schedule, each a tuple of ``(step code, length, lat, bw,
    ov)`` with the send path's parameters resolved; the distinct rounds,
    each the tuple of program indices appearing in it; and the round
    sequence as indices into ``rounds``. Ranks running the same program
    cost the same and a round costs its most expensive rank, so one
    representative per program preserves every cost exactly.

    Array work on the columns: a stable sort by (round, rank) keeps each
    program in emission order; programs are told apart by path-parameter
    values, never by which pair they came from.
    """
    p, n_rounds = sched.nranks, sched.n_rounds
    cols = sched.columns
    n = cols.shape[1]
    if not n:
        return (), ((),), [0] * n_rounds
    rnd, rank, code, peer, _, length = cols
    cls, params = topo.path_classes(np.where(code == SEND, rank * p + peer, -1))
    nc = len(params)
    key = (length * nc + cls) * 4 + code + 1  # > 0; decoded by step() below
    seg = rnd * p + rank  # (round, rank): one program each
    perm = seg.argsort(kind="stable")
    seg, key = seg[perm], key[perm]
    edge = np.empty(n + 1, bool)
    edge[0] = edge[n] = True
    np.not_equal(seg[1:], seg[:-1], out=edge[1:n])
    bounds = edge.nonzero()[0]
    start, size = bounds[:-1], bounds[1:] - bounds[:-1]
    width = int(size.max())
    digit, base = key, int(key.max()) + 1
    if base ** width > 1 << 62:  # long programs: as small a base as possible
        digit = _dense(key)[0] + 1
        base = int(digit.max()) + 1
    digits = np.zeros((len(start), width), np.int64)  # 0-padded
    digits.ravel()[np.arange(n) + np.repeat(
        np.arange(0, len(start) * width, width) - start, size)] = digit
    # A program is the number whose base-``base`` digits are its step keys
    # (0: no step), read ``k`` digits at a time and renumbered densely in
    # between, so that nothing overflows.
    k = max(1, int((62 - math.log2(len(start))) / math.log2(base)))
    prog = np.zeros(len(start), np.int64)
    for j in range(0, width, k):
        block = digits[:, j:j + k]
        weights = base ** np.arange(block.shape[1] - 1, -1, -1)
        prog = prog * base ** block.shape[1] + block @ weights
        if j + k < width:
            prog = _dense(prog)[0]
    prog, first = _dense(prog)

    def step(value: int) -> Tuple:
        rest, c = divmod(value - 1, 4)
        length, cl = divmod(rest, nc)
        return (c, length) + params[cl]

    programs = tuple(tuple(map(step, key[a:a + m].tolist()))
                     for a, m in zip(start[first].tolist(), size[first].tolist()))
    nprog = len(programs)
    member = np.zeros((n_rounds, nprog), bool)
    member[seg[start] // p, prog] = True
    member = member.tobytes()
    distinct: Dict[bytes, int] = {}
    order = [distinct.setdefault(member[i:i + nprog], len(distinct))
             for i in range(0, len(member), nprog)]
    rounds = tuple(tuple(i for i, m in enumerate(row) if m) for row in distinct)
    return programs, rounds, order


def schedule_cost(sched: Schedule, topo: Topology, itemsize: int = 1, *,
                  bw_scale: float = 1.0, per_round_overhead: float = 0.0,
                  staging_threshold: int = 0,
                  staging_inv_bw: float = 0.0,
                  protocol: Union[str, ProtocolSpec, None] = None,
                  channels: int = 1) -> float:
    """Predicted seconds for one execution of ``sched`` on ``topo``.

    ``bw_scale`` discounts path bandwidth (e.g. GPUCCL ring efficiency),
    ``per_round_overhead`` adds a fixed charge per round (e.g. SHMEM host
    post cost), and ``staging_*`` model host bounce-buffer copies above an
    eager threshold (2x for the send+recv side is the caller's job).

    ``protocol`` applies a :class:`ProtocolSpec`'s framing/rendezvous
    terms to every send; ``channels`` stripes each message over that many
    parallel rails sharing the wire — each rail pays per-message overhead
    but the stripes together can recover bandwidth a single channel's
    ``bw_scale`` discount leaves idle (capped at the physical wire).
    ``protocol=None`` means no wire-protocol framing: a send pays one
    path latency, one per-message overhead and its bytes at ``bw_scale``.
    """
    spec = protocol_spec(protocol)
    bw_factor = 1.0 if spec is None else spec.bw_factor
    ov_factor = 1.0 if spec is None else spec.overhead_factor
    lat_factor = 1.0 if spec is None else 1.0 + spec.rendezvous_factor
    eff_scale = min(channels * bw_scale, 1.0) * bw_factor
    local_bw = topo.local_bandwidth()
    compiled = sched.compiled
    if compiled is None or compiled[0] is not topo:
        compiled = sched.compiled = (topo, _compile(sched, topo))
    programs, rounds, order = compiled[1]
    costs = []
    for prog in programs:
        rank_cost = 0.0
        for code, length, lat, bw, ov in prog:
            nbytes = length * itemsize
            if code == SEND:
                rank_cost += (lat * lat_factor + ov * ov_factor * channels
                              + nbytes / (bw * eff_scale))
            elif code == COPY:
                rank_cost += nbytes / local_bw
                continue  # local copies never stage through the host
            elif code == RECV_REDUCE:
                rank_cost += nbytes / local_bw
            if staging_inv_bw and nbytes > staging_threshold:
                rank_cost += nbytes * staging_inv_bw
        costs.append(rank_cost)
    round_costs = [max([costs[i] for i in members], default=0.0)
                   for members in rounds]
    total = 0.0
    for i in order:
        total += round_costs[i]
    return total + per_round_overhead * sched.n_rounds
