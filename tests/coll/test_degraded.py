"""Degraded-topology rescheduling: collectives route around dead links.

When a persistent ``down`` fault kills a link, :class:`CollPolicy` re-runs
selection with a prohibitive surcharge on any schedule that sends over a
dead pair — the ring->tree fallback — in *every* policy mode, so even a
fixed "ring" policy cannot stay wedged on a dead ring. End-to-end, an
AllReduce over the degraded cluster still completes with the right answer
and records the reschedule in metrics + the injector log.
"""

import numpy as np
import pytest

from repro.coll import CollPolicy
from repro.coll.cost import Topology
from repro.coll.schedule import Send
from repro.coll import generate
from repro.errors import SimTimeoutError
from repro.hardware import Cluster, get_machine
from tests.core.conftest import ALL_BACKENDS, uniconn_run


def _topo(p=4, machine="perlmutter"):
    spec = get_machine(machine)
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)), list(range(p)))


def _sends(algo, kind, p, topo):
    sched = generate(algo, kind, p, 1024, topo=topo)
    pairs = set()
    for rnd in sched.rounds:
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, Send):
                    pairs.add((rank, st.peer))
    return pairs


def test_dead_penalty_prices_dead_pairs_out():
    topo = _topo()
    policy = CollPolicy.fixed("ring")
    # The ring sends 1->2; with that pair dead the ring is unusable.
    assert (1, 2) in _sends("ring", "all_reduce", 4, topo)
    dead = frozenset({(1, 2)})
    penalty = policy._dead_penalty("ring", "gpuccl", "all_reduce", 1024, topo, dead)
    assert penalty == CollPolicy.DEAD_PAIR_PENALTY
    # An algorithm avoiding the pair pays nothing.
    for algo in ("tree", "recdbl"):
        if (1, 2) not in _sends(algo, "all_reduce", 4, topo):
            assert policy._dead_penalty(
                algo, "gpuccl", "all_reduce", 1024, topo, dead) == 0.0


def test_fixed_ring_falls_back_off_the_dead_ring():
    topo = _topo()
    policy = CollPolicy.fixed("ring")
    dead = frozenset({(1, 2)})
    algo = policy._select_degraded("gpuccl", "all_reduce", 1024, topo, dead, None)
    assert algo is not None and algo != "ring"
    assert (1, 2) not in _sends(algo, "all_reduce", 4, topo)
    # Healthy selection is untouched: the degraded cache is keyed apart.
    assert policy.select("gpuccl", "all_reduce", 1024, topo) == "ring"


def test_degraded_selection_is_cached_per_dead_set():
    topo = _topo()
    policy = CollPolicy.auto()
    dead = frozenset({(0, 1), (1, 0)})
    a = policy._select_degraded("mpi", "all_gather", 4096, topo, dead, None)
    b = policy._select_degraded("mpi", "all_gather", 4096, topo, dead, None)
    assert a == b and len(policy._degraded) == 1


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_allreduce_completes_over_dead_link(backend):
    # End to end: a permanent link outage from t=0; a fixed-ring policy
    # must reroute (not wait out an infinite window) and still reduce
    # correctly. The watchdog converts any would-be hang into a failure.
    def body(env, comm, coord):
        from repro.core import IN_PLACE, Memory

        buf = Memory.alloc(env, 4)
        buf.write(np.full(4, float(comm.global_rank() + 1)))
        coord.all_reduce(IN_PLACE, buf, 4, "sum", comm)
        coord.stream.synchronize()
        return buf.read().copy()

    report = uniconn_run(
        4, backend, body, coll="ring",
        fault_plan="down,link=nvlink?1->2?,start=0;watchdog,timeout=5e-3",
        obs="metrics",
    )
    for r in report:
        np.testing.assert_array_equal(r, np.full(4, 10.0))
    assert report.metrics.counter_total("reschedules_total", cause="link_down") >= 1
    assert any(kind == "recover.reschedule" for _, kind, _ in report.faults)


def _mpi_broadcast(root, link, coll):
    def body(env, comm, coord):
        from repro.core import Memory

        buf = Memory.alloc(env, 4)
        if comm.global_rank() == root:
            buf.write(np.arange(4, dtype=np.float64) + 7.0)
        coord.broadcast(buf, 4, root, comm)
        coord.stream.synchronize()
        return buf.read().copy()

    return uniconn_run(
        4, "mpi", body, coll=coll,
        fault_plan=f"down,link=nvlink?{link}?,start=0;watchdog,timeout=5e-3",
    )


def test_mpi_native_penalty_checks_the_binomial_mpi_runs():
    # MPI's own broadcast from 0 sends 0->2, 0->1, 2->3 (masks descending),
    # not the catalogue tree's 0->1, 0->2, 1->3.
    topo = _topo()
    policy = CollPolicy.auto()
    for kind, dead in (("broadcast", (2, 3)), ("reduce", (3, 2)),
                       ("all_reduce", (2, 3)), ("all_gather", (3, 0)),
                       ("reduce_scatter", (0, 3))):
        assert policy._dead_penalty("native", "mpi", kind, 64, topo,
                                    frozenset({dead})) \
            == CollPolicy.DEAD_PAIR_PENALTY, kind
    assert policy._dead_penalty("native", "mpi", "broadcast", 64, topo,
                                frozenset({(1, 3), (1, 2)})) == 0.0


@pytest.mark.parametrize("coll", ["ring", "auto"])
def test_rerouted_mpi_broadcast_avoids_the_dead_link(coll):
    for got in _mpi_broadcast(0, "2->3", coll):
        np.testing.assert_array_equal(got, np.arange(4, dtype=np.float64) + 7.0)


@pytest.mark.xfail(strict=True, raises=SimTimeoutError,
                   reason="CollPolicy.select has no root: the native "
                   "broadcast's links are checked as if rooted at 0")
@pytest.mark.parametrize("root", [1, 3])
def test_rerouted_mpi_broadcast_from_another_root(root):
    for got in _mpi_broadcast(root, "3->0", "auto"):
        np.testing.assert_array_equal(got, np.arange(4, dtype=np.float64) + 7.0)
