"""Unit tests for cluster topology, routing, and machine presets."""

import pytest

from repro.errors import HardwareError
from repro.hardware import Cluster, KernelCost, get_machine, lumi, marenostrum5, perlmutter


@pytest.fixture
def cluster():
    return Cluster(perlmutter(), n_nodes=2)


def test_gpu_placement(cluster):
    assert cluster.n_gpus == 8
    assert cluster.node_of(0) == 0
    assert cluster.node_of(3) == 0
    assert cluster.node_of(4) == 1
    assert cluster.local_rank_of(5) == 1
    assert cluster.same_node(0, 3)
    assert not cluster.same_node(3, 4)


def test_gpu_id_bounds(cluster):
    with pytest.raises(HardwareError):
        cluster.node_of(8)
    with pytest.raises(HardwareError):
        cluster.node_of(-1)


def test_intra_node_path_is_single_link(cluster):
    p = cluster.path(0, 1)
    assert len(p.links) == 1
    assert "nvlink" in p.name
    assert p.bandwidth == pytest.approx(perlmutter().intra_bandwidth)


def test_inter_node_path_uses_nics(cluster):
    p = cluster.path(0, 4)
    assert len(p.links) == 2
    assert "nic-out[0]" in p.name and "nic-in[4]" in p.name
    assert p.bandwidth == pytest.approx(perlmutter().nic_bandwidth)
    # Inter-node latency includes NIC hops plus fabric traversal.
    m = perlmutter()
    assert p.latency == pytest.approx(2 * m.nic_latency + m.fabric_latency)


def test_loopback_path(cluster):
    p = cluster.path(2, 2)
    assert "loop" in p.name
    assert p.bandwidth > perlmutter().intra_bandwidth


def test_paths_are_cached_and_stateful(cluster):
    p1 = cluster.path(0, 1)
    p2 = cluster.path(0, 1)
    assert p1 is p2
    p1.reserve(0.0, 10**6)
    assert cluster.path(0, 1).links[0].busy_until > 0


def test_distinct_pairs_do_not_share_intra_links(cluster):
    assert cluster.path(0, 1).links[0] is not cluster.path(1, 0).links[0]
    assert cluster.path(0, 1).links[0] is not cluster.path(0, 2).links[0]


def test_inter_node_transfers_share_source_nic(cluster):
    p_a = cluster.path(0, 4)
    p_b = cluster.path(0, 5)
    assert p_a.links[0] is p_b.links[0]  # same egress NIC
    assert p_a.links[1] is not p_b.links[1]


def test_invalid_node_count():
    with pytest.raises(HardwareError):
        Cluster(perlmutter(), n_nodes=0)


def test_machine_presets_match_table1():
    p, l, m = perlmutter(), lumi(), marenostrum5()
    assert p.gpus_per_node == 4 and "A100" in p.gpu.name
    # LUMI: each MI250X GCD is a separate GPU -> 8 per node.
    assert l.gpus_per_node == 8 and "MI250X" in l.gpu.name
    assert m.gpus_per_node == 4 and "H100" in m.gpu.name
    # GPUSHMEM availability per Table I.
    assert p.has_gpushmem() and m.has_gpushmem() and not l.has_gpushmem()
    # NVLink 4.0 is faster than NVLink 3.0 is faster than Infinity Fabric.
    assert m.intra_bandwidth > p.intra_bandwidth > l.intra_bandwidth


def test_get_machine_lookup():
    assert get_machine("Perlmutter").name == "perlmutter"
    assert get_machine("LUMI").name == "lumi"
    with pytest.raises(KeyError, match="unknown machine"):
        get_machine("frontier")


def test_gpu_kernel_time_roofline():
    gpu = perlmutter().gpu
    mem_bound = KernelCost(bytes_moved=1.555e12, flops=1.0)
    assert gpu.kernel_time(mem_bound) == pytest.approx(1.0)
    compute_bound = KernelCost(bytes_moved=1.0, flops=19.5e12)
    assert gpu.kernel_time(compute_bound) == pytest.approx(1.0)
    assert gpu.launch_time(KernelCost()) == pytest.approx(gpu.launch_overhead)


def test_kernel_cost_addition():
    c = KernelCost(100.0, 50.0) + KernelCost(1.0, 2.0)
    assert c.bytes_moved == 101.0 and c.flops == 52.0


def test_rccl_small_message_penalty_encoded():
    """Paper II-C / [34]: RCCL is weak on small messages on LUMI."""
    assert lumi().gpuccl.comm_launch_overhead > 2 * perlmutter().gpuccl.comm_launch_overhead
