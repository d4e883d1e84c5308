"""``make_problem`` hands out one shared, read-only problem per
``(n, nnz_per_row, seed)``: the process keeps the last one it built, a
different key replaces it, ``matrix=`` is never cached, and a job run on the
shared problem is the job run on a freshly built one. The matrix is built
at about twice its own size, and a rank's row block is a view of it."""

import dataclasses
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import cg as cg_app
from repro.apps.cg import CgConfig, CgState, make_problem, synthetic_spd
from repro.apps.cg import elastic, harness
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


# sha256 of indptr, indices and data: the cg_solve benchmark's size, a
# queen-like matrix, and a matrix small enough to have no random couplings.
MATRIX_SHA256 = {
    (52000, 33, 7): (
        "6421be2d403a54d5e8cfdd2156e615c5ea1bd648d940bddcbcf16285733567ad",
        "bae18f337c561688cd3740b4b79d712cf686750ee35806c619ff15e0f5cfa061",
        "ba1c6fb1dcf92a4a9bd7cba6b4513583f86032cdf42668e6d09a88710358e0d3",
    ),
    (8192, 80, 11): (
        "5199f5d7fc9801ff7affae1d40f215dc406fd6bfafea7d6132a7ce1fc52e8899",
        "fcae172c2ea2888f9d61dde2d27b9f885e252bbfe96c9073661bf5007e5de664",
        "a9f18991583068bcf40ceff764affc6e53a1ab6de03169f7b28d9c0bdbc6fe38",
    ),
    (48, 3, 0): (
        "c1859415b24cc437abc68a13ea4d984b0ad8e3682cf976146ee18636b80aec55",
        "5c0e082b735fbe84395db0a3b12bcc0da4f724e48ab3d331ad1a1f01ebd1165c",
        "a9e2892b134a8764f71cc119569ec52dd06f3c364c4c4c579c0656b4eb20b4c3",
    ),
    (48, 3, 1): (
        "c1859415b24cc437abc68a13ea4d984b0ad8e3682cf976146ee18636b80aec55",
        "5c0e082b735fbe84395db0a3b12bcc0da4f724e48ab3d331ad1a1f01ebd1165c",
        "96e9d506a9535d5bb8e66652b9625468ff3c868d635982e2b2d9dfc1bd00b3b0",
    ),
}


@pytest.mark.parametrize("key", sorted(MATRIX_SHA256))
def test_synthetic_spd_bytes_are_pinned(key):
    a = synthetic_spd(*key)
    arrays = (a.indptr, a.indices, a.data)
    assert [x.dtype for x in arrays] == [np.int32, np.int32, np.float64]
    assert tuple(hashlib.sha256(x.tobytes()).hexdigest() for x in arrays) == MATRIX_SHA256[key]


def _synthetic_spd_reference(n, nnz_per_row, seed):
    """The straightforward build (lists of COO pieces, concatenated) that
    ``synthetic_spd`` must match byte for byte."""
    rng = np.random.default_rng(seed)
    k = max(2, int(np.sqrt(n)))
    rows, cols, vals = [], [], []
    for off in [1, k, min(k * 7, n - 1)]:
        idx = np.arange(n - off)
        rows.append(idx)
        cols.append(idx + off)
        vals.append(-np.abs(rng.normal(1.0, 0.2, size=n - off)))
    want = max(0, n * nnz_per_row - 2 * sum(len(r) for r in rows) - n) // 2
    if want > 0:
        rr, cc = rng.integers(0, n, size=want), rng.integers(0, n, size=want)
        lo, hi = np.minimum(rr, cc), np.maximum(rr, cc)
        keep = lo < hi
        rows.append(lo[keep])
        cols.append(hi[keep])
        vals.append(-np.abs(rng.normal(0.3, 0.1, size=int(keep.sum()))))
    upper = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))
    a = (upper + upper.T).tocsr()
    a.sum_duplicates()
    a = a + sp.diags(np.abs(a).sum(axis=1).A1 + 1.0)
    out = a.tocsr().astype(np.float64)
    out.sort_indices()
    return out


@pytest.mark.parametrize("n", [8, 9, 48, 97, 1000, 3001])
def test_synthetic_spd_is_the_reference_build(n):
    for nnz_per_row in (3, 7, 33, 80):
        for seed in (0, 5):
            got = synthetic_spd(n, nnz_per_row, seed)
            ref = _synthetic_spd_reference(n, nnz_per_row, seed)
            for name in ("indptr", "indices", "data"):
                x, y = getattr(got, name), getattr(ref, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (nnz_per_row, seed, name)


@pytest.mark.parametrize("key", [(52000, 33, 7), (8192, 80, 11)])
def test_synthetic_spd_peaks_near_its_own_size(key):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    a = synthetic_spd(*key)
    peak = tracemalloc.get_traced_memory()[1] - before
    if not tracing:
        tracemalloc.stop()
    assert peak <= 2.7 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)


def _record_states(monkeypatch, module):
    """Every CgState ``module`` builds, in order."""
    made = []

    def record(**fields):
        made.append(CgState(**fields))
        return made[-1]

    monkeypatch.setattr(module, "CgState", record)
    return made


def _views_of(problem, states):
    return all(np.shares_memory(s.a_local.data, problem.a.data)
               and np.shares_memory(s.a_local.indices, problem.a.indices) for s in states)


def test_setup_state_row_blocks_are_views_of_the_shared_matrix(monkeypatch):
    states = _record_states(monkeypatch, harness)
    problem = make_problem(CFG)
    report = cg_app.launch_variant("mpi", CFG, 4, problem=problem, collect=True)
    assert len(states) == 4 and _views_of(problem, states)
    for state in states:
        assert not state.a_local.data.flags.writeable
        rows = problem.a[state.my_offset : state.my_offset + state.n_local, :]
        assert (state.a_local != rows).nnz == 0
    x_ref, _ = cg_app.serial_cg(problem, CFG.iters)
    np.testing.assert_allclose(cg_app.assemble_x(report, CFG.n), x_ref, rtol=1e-8, atol=1e-10)


def test_elastic_repartition_row_blocks_are_views_of_the_shared_matrix(monkeypatch):
    states = _record_states(monkeypatch, elastic)
    cfg = CgConfig(n=256, nnz_per_row=9, iters=20, seed=3)
    problem = make_problem(cfg)
    cg_app.launch_variant("elastic:mpi", cfg, 4, problem=problem,
                          fault_plan="crash,rank=1,at=1e-4;watchdog,timeout=5e-3")
    assert {len(s.counts) for s in states} == {4, 3}  # built, then re-partitioned
    assert _views_of(problem, states)


def test_matrix_may_be_any_sparse_format():
    """A CSR matrix is used as it is; any other format is converted once,
    and the caller's matrix is left as it was."""
    csr = synthetic_spd(CFG.n, CFG.nnz_per_row, CFG.seed)
    residuals = []
    for fmt in ("coo", "csc", "csr"):
        mine = csr.asformat(fmt)
        before = mine.copy()
        problem = make_problem(CFG, matrix=mine)
        assert problem.a.format == "csr" and (problem.a is mine) == (fmt == "csr")
        report = cg_app.launch_variant("mpi", CFG, 2, problem=problem, collect=True)
        residuals.append(cg_app.final_residual(problem, cg_app.assemble_x(report, CFG.n)))
        assert mine.format == fmt and (mine != before).nnz == 0
    assert residuals[0] == residuals[1] == residuals[2]
