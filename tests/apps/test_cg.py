"""Integration tests: every CG variant must converge and agree with the
serial reference within floating-point reduction-order tolerance."""

import numpy as np
import pytest

from repro.apps.cg import (
    CgConfig,
    assemble_x,
    final_residual,
    launch_variant,
    make_problem,
    row_partition,
    serial_cg,
    synthetic_spd,
)

CFG = CgConfig(n=512, nnz_per_row=12, iters=15, seed=3)
PROBLEM = make_problem(CFG)

ALL_VARIANTS = [
    "mpi-native",
    "gpuccl-native",
    "gpushmem-host-native",
    "gpushmem-device-native",
    "uniconn:mpi",
    "uniconn:gpuccl",
    "uniconn:gpushmem",
    "uniconn:gpushmem:PureDevice",
]


def test_synthetic_matrix_is_spd():
    a = synthetic_spd(256, 16, seed=1)
    assert (abs(a - a.T) > 1e-12).nnz == 0
    eigs = np.linalg.eigvalsh(a.toarray())
    assert eigs.min() > 0
    density = a.nnz / a.shape[0]
    assert 8 <= density <= 24


def test_matrix_density_targets():
    a33 = synthetic_spd(2048, 33, seed=5)
    a80 = synthetic_spd(2048, 80, seed=5)
    assert abs(a33.nnz / 2048 - 33) < 8
    assert abs(a80.nnz / 2048 - 80) < 16


def test_serial_cg_converges():
    x, res = serial_cg(PROBLEM, 200)
    assert res < 1e-6 * np.linalg.norm(PROBLEM.b)
    np.testing.assert_allclose(x, PROBLEM.x_true, atol=1e-5)


def test_row_partition_covers():
    counts, displs = row_partition(103, 4)
    assert sum(counts) == 103
    assert displs == [0, 26, 52, 78]  # 27+26+26+26? -> verify consistency
    assert counts == [26, 26, 26, 25] or sum(counts) == 103


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_variant_matches_serial(variant):
    results = launch_variant(variant, CFG, nranks=4, problem=PROBLEM, collect=True)
    x = assemble_x(results, CFG.n)
    x_ref, _ = serial_cg(PROBLEM, CFG.iters)
    np.testing.assert_allclose(x, x_ref, rtol=1e-8, atol=1e-10, err_msg=variant)


@pytest.mark.parametrize("variant", ["uniconn:gpuccl", "gpuccl-native"])
def test_residual_decreases(variant):
    results = launch_variant(variant, CFG, nranks=2, problem=PROBLEM, collect=True)
    x = assemble_x(results, CFG.n)
    res = final_residual(PROBLEM, x)
    assert res < 0.5 * np.linalg.norm(PROBLEM.b)


def test_timings_positive_all_variants():
    for variant in ("mpi-native", "uniconn:gpushmem"):
        results = launch_variant(variant, CFG, nranks=2, problem=PROBLEM)
        assert all(r.total_time > 0 for r in results)
        assert all(r.time_per_iter == pytest.approx(r.total_time / CFG.iters) for r in results)


def test_mpi_cg_slower_than_gpuccl():
    """Fig. 6's headline: MPI's allgatherv makes CG far slower than GPUCCL.

    The effect needs the paper's regime — MB-scale direction vectors, so
    the fan-in + full-vector broadcast fallback dominates. (At KB scale MPI
    actually wins on launch overhead, which is Fig. 2's small-message
    story, tested in the network benches.)
    """
    cfg = CgConfig(n=262144, nnz_per_row=8, iters=4, seed=2)
    prob = make_problem(cfg)
    t_mpi = max(r.total_time for r in launch_variant("mpi-native", cfg, 8, problem=prob))
    t_ccl = max(r.total_time for r in launch_variant("gpuccl-native", cfg, 8, problem=prob))
    assert t_mpi > 1.5 * t_ccl, (t_mpi, t_ccl)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown backend 'magic'"):
        launch_variant("magic", CFG, 2, problem=PROBLEM)
