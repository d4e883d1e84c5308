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

from repro.coll import (ALGORITHMS, CANONICAL_SHMEM_KINDS, CATALOGUE_KINDS,
                        CHANNEL_COUNTS, DEFAULT_ALGORITHM, KINDS, PROTOCOLS,
                        CollTuner, Copy, Recv, RecvReduce, Send, Topology,
                        generate, protocol_spec, schedule_cost)
from repro.coll.tuner import _combos
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
#: sort_keys=True)``, recorded with the step-walking cost model and every
#: backend's default priced over its schedule. A change here means a
#: selection moved: re-derive the bands by hand before touching a digest.
_TABLE_DIGESTS = {
    ("perlmutter", 8): "3eb21673aed4afc14d0213adff686f5cad4b8ddf9ed42b62cd4b60abbabe6871",
    ("perlmutter", 16): "4834a74cba1b4d8af417f88ed4a35f15224f669c4cb4540f4ce2b00c0a2b32ce",
    ("perlmutter", 64): "4b79a5979349079830b76f8b3525f022dd9ed7491ad78ce248df79c2a9d36a19",
    ("lumi", 8): "36112059c8a8bbdf70f315de0351304358553f589411c1c3c8a3034aad15cb49",
    ("lumi", 16): "e457d0076850b051029ce3158737beb44136ee3d455aa6ee1e3538166de4936d",
    ("lumi", 64): "92007cbfe59dbd3d538e46c459dd4d2761397d24764a235dd327cce6f75976c9",
    ("marenostrum5", 8): "f035359621cb7b16db19457eecaf685dcaf78b22a1433582d664c8c853054e10",
    ("marenostrum5", 16): "935fa88205c7f0453e4e6664373dd817d0631aecedbb27fbc88ea031a9bb01f1",
    ("marenostrum5", 64): "c7c7c03ccc65fe9b497519c67ae791662f8954af28ecc883c678ca51b45aeb09",
}


@pytest.mark.parametrize("machine,gpus", sorted(_TABLE_DIGESTS))
def test_tuning_table_digest(machine, gpus):
    doc = CollTuner(machine, gpus).build_table().to_doc()
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _TABLE_DIGESTS[(machine, gpus)]


def _default_charges(backend, model, kind, nbytes):
    """What ``model.duration(kind, nbytes)`` must be: the backend's fixed
    charges plus ``schedule_cost`` of the kind's default schedule."""
    topo, profile = model.topo, model.profile
    if backend == "gpuccl":
        sched = topo.schedule(DEFAULT_ALGORITHM["gpuccl"][kind], kind, nbytes)
        return (profile.comm_launch_overhead + profile.protocol_overhead
                + profile.channel_launch_overhead
                + schedule_cost(sched, topo, 1,
                                bw_scale=profile.ring_efficiency))
    canonical = CANONICAL_SHMEM_KINDS[kind]
    sched = topo.schedule(DEFAULT_ALGORITHM["gpushmem"][canonical], canonical,
                          nbytes)
    return (profile.channel_post_overhead
            + schedule_cost(sched, topo, 1,
                            per_round_overhead=profile.host_post_overhead)
            + model.barrier_time())


@pytest.mark.parametrize("p", (2, 3, 5, 8, 16, 64))
@pytest.mark.parametrize("machine", ("perlmutter", "lumi", "marenostrum5"))
def test_one_price_per_collective(machine, p):
    """GPUCCL's and GPUSHMEM's no-policy price is the price of a schedule,
    the same formula every explicit candidate gets, and that schedule is
    the one the tuner ranks first."""
    tuner = CollTuner(machine, p)
    kinds = {"gpuccl": CATALOGUE_KINDS, "gpushmem": tuple(CANONICAL_SHMEM_KINDS)}
    checked = 0
    for backend, native_kinds in kinds.items():
        model = tuner.model(backend)
        if model is None:
            continue
        for kind in native_kinds:
            canonical = CANONICAL_SHMEM_KINDS.get(kind, kind)
            default = DEFAULT_ALGORITHM[backend][canonical]
            first = _combos(backend, canonical, p, tuner.topo)[0]
            assert (str(first), first.protocol, first.channels) == \
                (default, None, 1), (backend, kind)
            for nbytes in (1, 4, 4100, 1 << 20):
                want = _default_charges(backend, model, kind, nbytes)
                assert model.duration(kind, nbytes) == want, \
                    (backend, kind, nbytes)
                assert model.duration(kind, nbytes, str(first)) == want
                checked += 1
    assert checked >= 4 * len(CATALOGUE_KINDS)
