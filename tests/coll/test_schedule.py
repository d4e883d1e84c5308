"""Schedule IR + algorithm generators against the naive reference.

The pure-python executor validates the IR while running (per-pair FIFO
matching, no unconsumed messages), so this matrix is simultaneously a
correctness proof of every generator's data movement and a well-formedness
check of every schedule — including non-power-of-two 7 and 12 ranks and
non-zero roots.
"""

import numpy as np
import pytest

from repro.coll import (ALGORITHMS, CATALOGUE_KINDS, Schedule, chunk_layout,
                        execute_schedule, generate, is_applicable,
                        reference_collective, ring_neighbors, schedule_cost)
from repro.coll.cost import Topology
from repro.hardware import Cluster, get_machine

RANK_COUNTS = (2, 3, 4, 7, 8, 12, 16)


def _topo(p, machine="perlmutter"):
    spec = get_machine(machine)
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)),
                    list(range(p)))


def _inputs(kind, p, count, seed=7):
    rng = np.random.default_rng(seed)
    per_rank = count * p if kind == "reduce_scatter" else count
    return [rng.integers(0, 1 << 20, per_rank).astype(np.float64)
            for _ in range(p)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", CATALOGUE_KINDS)
@pytest.mark.parametrize("p", RANK_COUNTS)
def test_generated_schedule_matches_reference(algorithm, kind, p):
    topo = _topo(p)
    if not is_applicable(algorithm, kind, p, topo):
        pytest.skip(f"{algorithm} not applicable to {kind} at p={p}")
    count = 12  # not divisible by every p: exercises ragged chunk layouts
    for root in (0, p - 1):
        sched = generate(algorithm, kind, p, count, topo=topo, root=root)
        assert sched is not None
        inputs = _inputs(kind, p, count)
        got = execute_schedule(sched, inputs, op="sum", root=root)
        want = reference_collective(kind, inputs, op="sum", root=root)
        for r in range(p):
            if want[r] is None:
                continue
            np.testing.assert_array_equal(got[r], want[r],
                                          err_msg=f"rank {r} root {root}")


@pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
def test_all_ops_supported(op):
    p, count = 7, 5
    topo = _topo(p)
    rng = np.random.default_rng(3)
    inputs = [rng.integers(1, 5, count).astype(np.float64) for _ in range(p)]
    sched = generate("tree", "all_reduce", p, count, topo=topo)
    got = execute_schedule(sched, inputs, op=op)
    want = reference_collective("all_reduce", inputs, op=op)
    for r in range(p):
        np.testing.assert_array_equal(got[r], want[r])


def test_count_smaller_than_ranks():
    """count < p forces zero-length chunks; they must be dropped cleanly."""
    p, count = 12, 5
    topo = _topo(p)
    inputs = _inputs("all_reduce", p, count)
    sched = generate("ring", "all_reduce", p, count, topo=topo)
    got = execute_schedule(sched, inputs, op="sum")
    want = reference_collective("all_reduce", inputs, op="sum")
    for r in range(p):
        np.testing.assert_array_equal(got[r], want[r])


def test_chunk_layout_properties():
    for count in (0, 1, 7, 12, 100):
        for parts in (1, 3, 7, 16):
            layout = chunk_layout(count, parts)
            assert len(layout) == parts
            assert sum(length for _, length in layout) == count
            # Contiguous, ordered, lengths differ by at most one.
            offset = 0
            lengths = []
            for off, length in layout:
                assert off == offset
                offset += length
                lengths.append(length)
            assert max(lengths) - min(lengths) <= 1


def test_ring_neighbors():
    assert ring_neighbors(0, 4) == (3, 1)
    assert ring_neighbors(3, 4) == (2, 0)
    assert ring_neighbors(0, 1) == (0, 0)


def test_executor_rejects_unbalanced_rounds():
    from repro.coll import Recv, Send

    sched = Schedule("broadcast", "bogus", 2, 4)
    rnd = sched.new_round()
    sched.add(rnd, 0, Send(1, 0, 4))
    sched.add(rnd, 0, Send(1, 0, 4))  # second send never consumed
    sched.add(rnd, 1, Recv(0, 0, 4))
    inputs = [np.ones(4), np.zeros(4)]
    with pytest.raises(ValueError, match="unconsumed"):
        execute_schedule(sched, inputs)

    sched2 = Schedule("broadcast", "bogus", 2, 4)
    rnd2 = sched2.new_round()
    sched2.add(rnd2, 1, Recv(0, 0, 4))  # receive with no send
    with pytest.raises(ValueError, match="no message"):
        execute_schedule(sched2, inputs)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown collective kind"):
        Schedule("scan", "ring", 4, 8)
    with pytest.raises(ValueError, match="unknown collective kind"):
        reference_collective("scan", [np.ones(2)] * 2)


def test_cost_model_sanity():
    """Cost is positive, grows with message size, and latency-bound
    algorithms beat the ring at small sizes on a multi-node topology."""
    p = 64
    topo = _topo(p)
    ring_small = schedule_cost(generate("ring", "all_reduce", p, 64,
                                        topo=topo), topo)
    tree_small = schedule_cost(generate("recdbl", "all_reduce", p, 64,
                                        topo=topo), topo)
    assert 0 < tree_small < ring_small
    big = 32 << 20
    ring_big = schedule_cost(generate("ring", "all_reduce", p, big,
                                      topo=topo), topo)
    tree_big = schedule_cost(generate("recdbl", "all_reduce", p, big,
                                      topo=topo), topo)
    assert ring_big > ring_small
    assert ring_big < tree_big  # bandwidth-optimal ring wins large


def test_applicability_rules():
    topo = _topo(8)
    one_node = _topo(4)
    assert not is_applicable("ring", "all_reduce", 1)
    assert not is_applicable("bruck", "all_reduce", 8, topo)
    assert is_applicable("bruck", "all_gather", 7)
    assert not is_applicable("recdbl", "all_gather", 7)
    assert is_applicable("recdbl", "all_gather", 8)
    assert is_applicable("recdbl", "all_reduce", 7)
    assert is_applicable("hier", "all_reduce", 8, topo)
    assert not is_applicable("hier", "all_reduce", 4, one_node)
    assert not is_applicable("nonsense", "all_reduce", 8, topo)
