"""IR soundness: every generated schedule computes its collective.

For a drawn rank count, root, per-rank counts (zeros allowed) and
reduction op, every applicable (algorithm, kind) — the catalogue's, and
MPI's ``native`` on every kind including the vector ones and all_to_all —
run through the pure-python executor (which also checks that each round's
messages match up) must equal the naive reference. Inputs are small
integers in float64, so every reduction order is exact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.coll import (ALGORITHMS, KINDS, Topology, execute_schedule,
                        generate, is_applicable, reference_collective)
from repro.coll.schedule import VECTOR_KINDS
from repro.hardware import Cluster, get_machine

_SPEC = get_machine("perlmutter")


def _inputs(kind, p, count, counts, root, rng):
    def draw(n):
        return rng.integers(-3, 4, n).astype(np.float64)

    if kind in ("gather_v", "all_gather_v"):
        return [draw(c) for c in counts]
    if kind == "scatter_v":
        return [draw(sum(counts)) if r == root else None for r in range(p)]
    if kind in ("reduce_scatter", "all_to_all"):
        return [draw(p * count) for _ in range(p)]
    return [draw(count) for _ in range(p)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_generated_schedule_equals_the_reference(data):
    p = data.draw(st.integers(2, 9), label="p")
    root = data.draw(st.integers(0, p - 1), label="root")
    count = data.draw(st.integers(0, 12), label="count")
    counts = tuple(data.draw(st.lists(st.integers(0, 5), min_size=p,
                                      max_size=p), label="counts"))
    op = data.draw(st.sampled_from(["sum", "prod", "max", "min"]), label="op")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    topo = Topology(Cluster(_SPEC, -(-p // _SPEC.gpus_per_node)), range(p))
    checked = 0
    for algorithm in ALGORITHMS + ("native",):
        for kind in KINDS:
            if algorithm != "native" and not is_applicable(algorithm, kind, p, topo):
                continue
            size = counts if kind in VECTOR_KINDS else count
            sched = generate(algorithm, kind, p, size, topo=topo, root=root)
            inputs = _inputs(kind, p, count, counts, root, rng)
            got = execute_schedule(sched, inputs, op=op, root=root)
            want = reference_collective(kind, inputs, op=op, root=root,
                                        counts=counts)
            for r in range(p):
                where = (algorithm, kind, p, size, root, op, r)
                assert (got[r] is None) == (want[r] is None), where
                if want[r] is not None:
                    np.testing.assert_array_equal(got[r], want[r], err_msg=str(where))
            checked += 1
    assert checked >= 2 * 5 + len(KINDS)  # ring and tree on 5 kinds, native on all
