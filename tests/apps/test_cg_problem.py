"""``make_problem`` hands out one shared, read-only problem per
``(n, nnz_per_row, seed)``: the process keeps the last one it built, a
different key replaces it, ``matrix=`` is never cached, and a job run on the
shared problem is the job run on a freshly built one."""

import dataclasses
import weakref

import numpy as np
import pytest

from repro.apps.cg import CgConfig, make_problem, synthetic_spd
from repro.serve import JobSpec, execute_job

# Keys no other test module builds, so nothing else holds these problems.
CFG = CgConfig(n=96, nnz_per_row=6, iters=5, seed=101)


def _evict():
    """Make the process build (and so hold) some other problem."""
    make_problem(CgConfig(n=16, nnz_per_row=3, seed=9999))


def test_an_equal_key_returns_the_same_object_whatever_iters():
    problem = make_problem(CFG)
    assert make_problem(CFG) is problem
    assert make_problem(dataclasses.replace(CFG, iters=500)) is problem


@pytest.mark.parametrize("field, value", [("n", 104), ("nnz_per_row", 7), ("seed", 102)])
def test_a_different_key_builds_anew_and_drops_the_old(field, value):
    _evict()
    old = make_problem(CFG)
    old_a, old_b = old.a.toarray(), old.b.copy()
    gone = weakref.ref(old)
    del old
    new = make_problem(dataclasses.replace(CFG, **{field: value}))
    assert gone() is None  # only the newest problem is held
    assert new.a.shape[0] == (value if field == "n" else CFG.n)
    again = make_problem(CFG)
    assert again is not new
    np.testing.assert_array_equal(again.a.toarray(), old_a)
    np.testing.assert_array_equal(again.b, old_b)


def test_matrix_bypasses_the_cache_and_stays_writeable():
    held = make_problem(CFG)
    mine = synthetic_spd(CFG.n, CFG.nnz_per_row, CFG.seed)
    first, second = make_problem(CFG, matrix=mine), make_problem(CFG, matrix=mine)
    assert first is not second and first is not held and first.a is mine
    assert mine.data.flags.writeable and first.b.flags.writeable
    mine.data[0] += 1.0
    assert make_problem(CFG) is held  # the held problem was neither replaced nor touched
    assert held.a.data[0] != mine.data[0]


def test_the_shared_problem_is_read_only():
    problem = make_problem(CFG)
    for array in (problem.a.data, problem.a.indices, problem.a.indptr,
                  problem.b, problem.x_true):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(ValueError, match="read-only"):
        problem.b += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.b = problem.b.copy()


def test_a_job_on_the_shared_problem_is_the_job_on_a_fresh_one():
    """Two CG specs that differ only in ``backend`` share one key: their
    documents are the same whether each built the problem or found it."""
    specs = [JobSpec(app="cg", backend=b, ranks=2, size=64, iters=4, seed=5,
                     collect=True).to_dict() for b in ("mpi", "gpushmem")]
    cold = []
    for spec in specs:
        _evict()
        cold.append(execute_job(spec))
    _evict()
    warm = [execute_job(spec) for spec in specs]
    shared = make_problem(CgConfig(n=64, nnz_per_row=4, seed=5))
    assert [execute_job(spec) for spec in specs] == warm
    assert make_problem(CgConfig(n=64, nnz_per_row=4, seed=5)) is shared
    assert all("solution_sha256" in doc["summary"] for doc in cold)
    assert warm == cold  # summary (digest, residual), report and all
