"""Every generated rank program against the loop generators.

``repro.coll.algorithms`` builds schedules as integer columns with array
arithmetic; ``loop_generators`` is the same catalogue written one step
object at a time, and MPI's ``native`` collectives as per-rank loops.
For every algorithm x kind x rank count x root x count, each rank's
program must hold the same steps — type, peer, offset, length — in the
same order, round by round, because pricing sums a program's steps in
that order (docs/COLLECTIVES.md, "What selection costs") and the MPI
executor posts them in that order.
"""

import pytest

from repro.coll import (ALGORITHMS, KINDS, CollPolicy, Copy, Recv, RecvReduce,
                        Send, Topology, generate, is_applicable)
from repro.coll.schedule import VECTOR_KINDS
from repro.hardware import Cluster, get_machine
from tests.coll import loop_generators

RANK_COUNTS = tuple(range(2, 17)) + (64,)


def _topo(p, machine="perlmutter"):
    spec = get_machine(machine)
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)),
                    list(range(p)))


def _fields(step):
    if isinstance(step, Copy):
        return (Copy, step.src, step.dst, step.length)
    return (type(step), step.peer, step.offset, step.length)


def _programs(sched):
    return [[[_fields(st) for st in steps] for steps in sched.rank_rounds(r)]
            for r in range(sched.nranks)]


def _assert_same_programs(topo, algorithm, kind, p, count, root):
    got = generate(algorithm, kind, p, count, topo=topo, root=root)
    want = loop_generators.generate(algorithm, kind, p, count, topo=topo,
                                    root=root)
    where = (algorithm, kind, p, count, root)
    assert (got.n_rounds, got.workspace, got.phases) == \
        (want.n_rounds, want.workspace, want.phases), where
    assert _programs(got) == _programs(want), where


@pytest.mark.parametrize("p", RANK_COUNTS)
def test_rank_programs_equal_the_loop_generators(p):
    topo = _topo(p)
    checked = 0
    for algorithm in ALGORITHMS:
        for kind in KINDS:
            if not is_applicable(algorithm, kind, p, topo):
                continue
            for root in sorted({0, p - 1}):
                for count in sorted({0, 1, 5, p - 1, p, p + 1, 1030}):
                    _assert_same_programs(topo, algorithm, kind, p, count, root)
                    checked += 1
    assert checked >= 2 * len(KINDS)  # ring and tree apply everywhere


def _ragged(p):
    """Per-rank counts with zeros (ranks 1, 6, 11, ...) and one large block."""
    return tuple(1030 if r == p - 1 else (7 * r + 3) % 5 for r in range(p))


@pytest.mark.parametrize("p", RANK_COUNTS)
def test_native_rank_programs_equal_the_hand_loops(p):
    topo = _topo(p)
    for kind in KINDS:
        vector = kind in VECTOR_KINDS
        counts = ((_ragged(p), (0,) * p, tuple(range(p))) if vector
                  else sorted({0, 1, 5, p - 1, p, p + 1, 1030}))
        for root in sorted({0, p - 1}):
            for count in counts:
                _assert_same_programs(topo, "native", kind, p, count, root)


@pytest.mark.parametrize("kind", ["all_reduce", "all_gather", "broadcast",
                                  "reduce_scatter"])
def test_hier_rank_programs_on_a_scattered_placement(kind):
    # Unequal nodes, leaders that are not the lowest rank, and a root
    # outside the first node.
    spec = get_machine("lumi")
    g = spec.gpus_per_node
    topo = Topology(Cluster(spec, 3), [0, g, 1, g + 1, 2 * g, 2, g + 2])
    for root in range(topo.nranks):
        for count in (0, 3, 7, 1030):
            _assert_same_programs(topo, "hier", kind, topo.nranks, count, root)


def test_hand_built_schedule_views_keep_emission_order():
    from repro.coll import Schedule

    sched = Schedule("all_reduce", "hand", 3, 4)
    first = sched.new_round()
    second = sched.new_round()
    sched.add(second, 2, Copy(0, 2, 1))
    sched.add(first, 1, RecvReduce(0, 0, 4))
    sched.add(first, 0, Send(1, 0, 4))
    sched.add(first, 1, Send(2, 0, 0))  # zero-length: dropped
    sched.add(first, 1, Recv(2, 1, 3))
    sched.pair(second, 0, 2, 0, 1, 2)
    assert sched.n_rounds == 2 and sched.columns.shape == (6, 6)
    assert [[_fields(st) for st in steps] for steps in sched.rank_rounds(1)] \
        == [[(RecvReduce, 0, 0, 4), (Recv, 2, 1, 3)], []]
    assert [sorted(rnd) for rnd in sched.rounds] == [[0, 1], [0, 2]]
    assert [_fields(st) for st in sched.rounds[1][2]] == \
        [(Copy, 0, 2, 1), (Recv, 0, 1, 2)]


def test_selection_at_a_new_size_builds_no_step_objects(monkeypatch):
    """Pricing runs on the columns: choosing among every 64-rank candidate
    schedule constructs no step object."""
    built = []
    for cls in (Send, Recv, RecvReduce, Copy):
        def counting(self, *args, _init=cls.__init__, _cls=cls):
            built.append(_cls)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    topo = _topo(64)
    for kind in ("all_reduce", "all_gather"):
        assert CollPolicy.auto().select("gpuccl", kind, 3 * 4099, topo)
    assert built == []
    Send(1, 0, 1)
    assert built == [Send]  # the guard itself is live
