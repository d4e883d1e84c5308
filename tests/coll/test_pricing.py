"""Compiled pricing against the step-walking oracle, bit for bit.

``schedule_cost`` prices a schedule from its compiled skeleton — one
representative per distinct rank program, identical rounds priced once
(docs/COLLECTIVES.md, "What selection costs"). ``_walk_cost`` below is the
model as it was before compilation: it visits every step of every rank of
every round. The two must agree with ``==``, never ``approx``: selections
are ``<`` comparisons between these numbers, so one ulp can flip a band.

The committed digests pin what the numbers add up to — the full tuning
table of every machine preset at 8, 16 and 64 GPUs.
"""

import hashlib
import json

import pytest

from repro.coll import (ALGORITHMS, CHANNEL_COUNTS, KINDS, PROTOCOLS,
                        CollTuner, Copy, Recv, RecvReduce, Send, Topology,
                        generate, protocol_spec, schedule_cost)
from repro.hardware import Cluster, get_machine

RANK_COUNTS = tuple(range(2, 17)) + (64,)


def _walk_cost(sched, topo, itemsize=1, *, bw_scale=1.0,
               per_round_overhead=0.0, staging_threshold=0,
               staging_inv_bw=0.0, protocol=None, channels=1):
    spec = protocol_spec(protocol)
    bw_factor = 1.0 if spec is None else spec.bw_factor
    ov_factor = 1.0 if spec is None else spec.overhead_factor
    lat_factor = 1.0 if spec is None else 1.0 + spec.rendezvous_factor
    eff_scale = min(channels * bw_scale, 1.0) * bw_factor
    local_bw = topo.local_bandwidth()
    total = 0.0
    for rnd in sched.rounds:
        round_cost = 0.0
        for rank, steps in rnd.items():
            rank_cost = 0.0
            for st in steps:
                if isinstance(st, Send):
                    nbytes = st.length * itemsize
                    lat, bw, ov = topo.path_params(rank, st.peer)
                    rank_cost += (lat * lat_factor + ov * ov_factor * channels
                                  + nbytes / (bw * eff_scale))
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, RecvReduce):
                    nbytes = st.length * itemsize
                    rank_cost += nbytes / local_bw
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, Recv):
                    nbytes = st.length * itemsize
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, Copy):
                    rank_cost += st.length * itemsize / local_bw
            if rank_cost > round_cost:
                round_cost = rank_cost
        total += round_cost
    return total + per_round_overhead * sched.n_rounds


def _topo(p, machine="perlmutter"):
    spec = get_machine(machine)
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)),
                    list(range(p)))


#: The non-protocol arguments the three backend models pass, staging off
#: and on (a threshold inside the priced sizes, so steps fall either side).
_MODEL_ARGS = (
    dict(bw_scale=0.82, per_round_overhead=1.3e-6),
    dict(bw_scale=0.82, per_round_overhead=1.3e-6,
         staging_threshold=2048, staging_inv_bw=1.0 / 11e9),
)


def _assert_prices_equal(sched, topo, itemsize=4):
    for args in _MODEL_ARGS:
        for protocol in (None,) + PROTOCOLS:
            for channels in CHANNEL_COUNTS:
                kwargs = dict(args, protocol=protocol, channels=channels)
                got = schedule_cost(sched, topo, itemsize, **kwargs)
                want = _walk_cost(sched, topo, itemsize, **kwargs)
                assert got == want, (sched, kwargs, got.hex(), want.hex())


@pytest.mark.parametrize("p", RANK_COUNTS)
def test_compiled_cost_equals_step_walk(p):
    topo = _topo(p)
    priced = 0
    for algorithm in ALGORITHMS:
        for kind in KINDS:
            roots = (0, p - 1) if kind in ("broadcast", "reduce") else (0,)
            # 5 < p leaves zero-length chunks (dropped steps, empty
            # rounds); 1030 is ragged for every p and straddles staging.
            for root in roots:
                for count in (5, 1030):
                    sched = generate(algorithm, kind, p, count, topo=topo,
                                     root=root)
                    if sched is None:
                        continue
                    _assert_prices_equal(sched, topo)
                    priced += 1
    assert priced >= 2 * len(KINDS)  # ring and tree apply everywhere


def test_default_arguments_and_itemsize():
    topo = _topo(16)
    for algorithm in ALGORITHMS:
        sched = generate(algorithm, "all_gather", 16, 777, topo=topo)
        for itemsize in (1, 4, 8):
            assert schedule_cost(sched, topo, itemsize) == \
                _walk_cost(sched, topo, itemsize)


def test_scattered_placement_and_repricing_on_another_topology():
    """Path parameters are resolved per Topology: a schedule priced on a
    second placement (same size, other nodes) must not reuse the first
    one's skeleton, and going back must still be exact."""
    spec = get_machine("lumi")
    g = spec.gpus_per_node
    cluster = Cluster(spec, 3)
    packed = Topology(cluster, list(range(6)))
    scattered = Topology(cluster, [0, g, 1, g + 1, 2 * g, 2])
    for algorithm in ("ring", "tree", "recdbl", "hier"):
        sched = generate(algorithm, "all_reduce", 6, 4099, topo=scattered)
        for topo in (scattered, packed, scattered):
            _assert_prices_equal(sched, topo)
    assert schedule_cost(sched, packed, 4) != schedule_cost(sched, scattered, 4)


def test_empty_schedule_costs_only_round_overhead():
    topo = _topo(4)
    sched = generate("ring", "all_reduce", 4, 0, topo=topo)
    assert sched.n_rounds and not any(sched.rounds)
    assert schedule_cost(sched, topo, 4, per_round_overhead=2.0) == \
        2.0 * sched.n_rounds


#: sha256 of ``json.dumps(CollTuner(m, n).build_table().to_doc(),
#: sort_keys=True)``, recorded with the step-walking cost model and MPI's
#: ``native`` priced over its schedule. A change here means a selection
#: moved: re-derive the bands by hand before touching a digest.
_TABLE_DIGESTS = {
    ("perlmutter", 8): "00290eb773fa5e2f4e9f866a8181d395be85999c2bc500f10a9c4788d198bd61",
    ("perlmutter", 16): "5d3a975a5fc0d1c582cd871d12ca3bb1f2bd2a5735978cb2874a82889e187948",
    ("perlmutter", 64): "00a83859930cbccca65b242554579a9fbf24386d48ae03b7058c2aaf573771f6",
    ("lumi", 8): "74e1b1da66fd6ecace4673263bfa9982c6be6daf4d12e518a5fb5f2ecfdd6418",
    ("lumi", 16): "63b7c4ba0cc2beededee6abc6c4378c1a02982806d429e5aaa81ec9d14db6c13",
    ("lumi", 64): "e5f0bbe92d9cbf229f724614f5df02a7119d8601f248610c2e6b292b2e57ff71",
    ("marenostrum5", 8): "115272c1772cc07602bd08244199d11c676759a9b06ccb22f461e58c26261b4b",
    ("marenostrum5", 16): "44be938973a7a7ba855df6fd7254c6c8652cf467d833b1516f9a5f917fcb2411",
    ("marenostrum5", 64): "4ab88dc2a84a390ea9ad97b09953949a2caf8fd97d1f303d38f7aff406b8ba59",
}


@pytest.mark.parametrize("machine,gpus", sorted(_TABLE_DIGESTS))
def test_tuning_table_digest(machine, gpus):
    doc = CollTuner(machine, gpus).build_table().to_doc()
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _TABLE_DIGESTS[(machine, gpus)]
