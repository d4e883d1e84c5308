"""Tests for rank placement policies (block vs spread)."""

import pytest

from repro.errors import HardwareError
from repro.hardware import perlmutter
from repro.launcher import Job, launch


def test_spread_placement_distributes_cyclically():
    def probe(ctx):
        return (ctx.node, ctx.node_rank)

    results = launch(probe, 4, n_nodes=2, placement="spread")
    assert results == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_spread_two_ranks_two_nodes():
    def probe(ctx):
        dev = ctx.set_device(ctx.node_rank)
        return ctx.node, dev.gpu_id

    results = launch(probe, 2, n_nodes=2, placement="spread")
    assert results[0] == (0, 0)
    assert results[1] == (1, 4)  # first GPU of node 1 on Perlmutter


def test_spread_node_size_counts_local_ranks():
    def probe(ctx):
        return ctx.node_size

    results = launch(probe, 5, n_nodes=2, placement="spread")
    # 5 ranks over 2 nodes: node0 gets 3, node1 gets 2.
    assert results == [3, 2, 3, 2, 3]


def test_block_placement_is_default():
    results = launch(lambda ctx: ctx.node, 8)
    assert results == [0, 0, 0, 0, 1, 1, 1, 1]


def test_invalid_placement_rejected():
    from repro.hardware import Cluster
    from repro.sim import Engine

    with pytest.raises(HardwareError, match="placement"):
        Job(Engine(), Cluster(perlmutter(), 1), 2, placement="diagonal")


def test_spread_communication_goes_inter_node():
    """Two spread ranks talk over the NIC path, not NVLink."""
    from repro.backends.mpi import MpiContext
    import numpy as np

    def main(ctx):
        ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        buf = np.zeros(1, np.float32)
        if ctx.rank == 0:
            mpi.comm_world.send(buf, 1, dst=1)
        else:
            mpi.comm_world.recv(buf, 1, src=0)
        mpi.finalize()
        return ctx.engine.now

    t_inter = launch(main, 2, n_nodes=2, placement="spread")[1]
    t_intra = launch(main, 2)[1]
    m = perlmutter()
    assert t_inter > t_intra
    assert t_inter >= 2 * m.nic_latency + m.fabric_latency


@pytest.mark.parametrize("placement,n_nodes", [("block", None), ("spread", 3)])
@pytest.mark.parametrize("n_ranks", [1, 7, 64])
def test_node_size_is_the_number_of_ranks_on_the_node(placement, n_nodes, n_ranks):
    """``node_size`` comes from one per-job table; it must equal what the
    per-rank count over every rank (the loop it replaced) gives."""
    from repro.hardware import Cluster
    from repro.launcher import RankContext
    from repro.sim import Engine

    nodes = n_nodes or -(-n_ranks // perlmutter().gpus_per_node)
    job = Job(Engine(), Cluster(perlmutter(), nodes), n_ranks, placement=placement)
    for rank in range(n_ranks):
        ctx = RankContext(job, rank)
        assert ctx.node_size == sum(
            1 for r in range(n_ranks) if job.node_of_rank(r) == ctx.node)
    assert sum(job.node_sizes.values()) == n_ranks


def test_starting_a_job_is_linear_in_the_rank_count(monkeypatch):
    calls = []
    real = Job.node_of_rank
    monkeypatch.setattr(Job, "node_of_rank",
                        lambda self, rank: calls.append(rank) or real(self, rank))
    launch(lambda ctx: ctx.node_size, 64)
    assert len(calls) <= 4 * 64  # it was 64 * 64 + 64
