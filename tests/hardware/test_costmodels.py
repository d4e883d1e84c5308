"""Unit tests for the analytic collective cost models and profile sanity."""

import pytest

from repro.coll import GpucclModel, ShmemModel, Topology
from repro.hardware import Cluster, get_machine, lumi, marenostrum5, perlmutter


def _ring_model(cluster, profile, gpu_ids):
    return GpucclModel(Topology(cluster, gpu_ids), profile)


def _team_model(cluster, pes):
    return ShmemModel(Topology(cluster, pes), cluster.machine.gpushmem)


@pytest.fixture
def cluster():
    return Cluster(perlmutter(), 2)


def test_ring_model_single_rank_is_local(cluster):
    ring = _ring_model(cluster, perlmutter().gpuccl, [0])
    base = perlmutter().gpuccl.comm_launch_overhead
    assert ring.allreduce_time(0) >= base
    assert ring.allgather_time(1 << 20) == pytest.approx(
        base + perlmutter().gpuccl.protocol_overhead
    )


def test_ring_model_monotone_in_size(cluster):
    ring = _ring_model(cluster, perlmutter().gpuccl, list(range(8)))
    sizes = [1 << k for k in range(4, 24, 4)]
    times = [ring.allreduce_time(s) for s in sizes]
    assert times == sorted(times)
    assert times[-1] > 2 * times[0]


def test_ring_model_uses_slowest_hop(cluster):
    intra_only = _ring_model(cluster, perlmutter().gpuccl, [0, 1, 2, 3])
    crossing = _ring_model(cluster, perlmutter().gpuccl, [0, 1, 4, 5])
    # The inter-node ring pays NIC bandwidth and latency on its worst hop.
    assert crossing.ring_bandwidth < intra_only.ring_bandwidth
    assert crossing.hop_latency > intra_only.hop_latency
    assert crossing.allreduce_time(1 << 20) > intra_only.allreduce_time(1 << 20)


def test_ring_allreduce_bandwidth_term(cluster):
    """Large allreduce time approaches 2(p-1)/p x n / ring_bw."""
    p = 4
    ring = _ring_model(cluster, perlmutter().gpuccl, list(range(p)))
    n = 64 << 20
    expected = 2 * (p - 1) / p * n / ring.ring_bandwidth
    assert ring.allreduce_time(n) == pytest.approx(expected, rel=0.1)


def test_team_model_tree_rounds(cluster):
    t2 = _team_model(cluster, [0, 1])
    t8 = _team_model(cluster, list(range(8)))
    assert t2.rounds == 1
    assert t8.rounds == 3
    assert t8.barrier_time() > t2.barrier_time()
    assert t8.collective_time("allreduce", 4096) > t2.collective_time("allreduce", 4096)


def test_team_model_single_pe_trivial(cluster):
    t1 = _team_model(cluster, [0])
    assert t1.collective_time("barrier", 0) == pytest.approx(
        perlmutter().gpushmem.host_post_overhead
    )


def test_team_model_rejects_unknown_kind(cluster):
    from repro.errors import GpushmemError

    with pytest.raises(GpushmemError, match="unknown collective"):
        _team_model(cluster, [0, 1]).collective_time("gossip", 8)


@pytest.mark.parametrize("spec", [perlmutter(), lumi(), lumi(True), marenostrum5()])
def test_profile_sanity(spec):
    assert spec.mpi.eager_threshold > 0
    assert spec.mpi.eager_copy_bandwidth > 1e9
    assert 0 < spec.gpuccl.ring_efficiency <= 1
    assert spec.gpuccl.comm_launch_overhead > spec.mpi.host_call_overhead
    if spec.gpushmem is not None:
        g = spec.gpushmem
        assert 0 < g.thread_granularity_penalty < g.warp_granularity_penalty <= 1
        assert g.proxy_overhead > 0
        assert g.device_direct_discount < spec.intra_latency


def test_machine_presets_are_fresh_instances():
    a, b = get_machine("perlmutter"), get_machine("perlmutter")
    assert a == b
    assert a is not b  # no shared mutable state between jobs
