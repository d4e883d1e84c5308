"""Integration tests: every Jacobi variant must agree BITWISE with the
serial reference — any ordering, matching, or signaling bug in the full
stack (engine -> backend -> app) breaks these."""

import numpy as np
import pytest

from repro.apps.jacobi import (
    JacobiConfig,
    assemble,
    launch_variant,
    partition_rows,
    serial_jacobi,
)

CFG = JacobiConfig(nx=24, ny=26, iters=6, warmup=2)

ALL_VARIANTS = [
    "mpi-native",
    "gpuccl-native",
    "gpushmem-host-native",
    "gpushmem-device-native",
    "uniconn:mpi",
    "uniconn:gpuccl",
    "uniconn:gpushmem",
    "uniconn:gpushmem:PartialDevice",
    "uniconn:gpushmem:PureDevice",
]


def reference(cfg):
    return serial_jacobi(cfg, iters=cfg.warmup + cfg.iters)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("nranks", [2, 4])
def test_variant_matches_serial_bitwise(variant, nranks):
    results = launch_variant(variant, CFG, nranks, collect=True)
    full = assemble(CFG, results)
    np.testing.assert_array_equal(full, reference(CFG), err_msg=f"{variant} x{nranks}")


def test_single_rank_runs():
    results = launch_variant("uniconn:mpi", CFG, 1, collect=True)
    full = assemble(CFG, results)
    np.testing.assert_array_equal(full, reference(CFG))


@pytest.mark.parametrize("machine,variant", [
    ("marenostrum5", "uniconn:gpushmem:PureDevice"),
    ("marenostrum5", "gpuccl-native"),
    ("lumi", "uniconn:gpuccl"),
    ("lumi", "mpi-native"),
])
def test_other_machines_match_serial(machine, variant):
    results = launch_variant(variant, CFG, 4, machine=machine, collect=True)
    np.testing.assert_array_equal(assemble(CFG, results), reference(CFG),
                                  err_msg=f"{machine}/{variant}")


def test_partition_covers_grid_exactly():
    cfg = JacobiConfig(nx=16, ny=19, iters=1, warmup=0)
    parts = [partition_rows(cfg, r, 4) for r in range(4)]
    rows = []
    for p in parts:
        rows.extend(range(p.row_start, p.row_end))
    assert rows == list(range(1, cfg.ny - 1))


def test_partition_too_many_ranks_rejected():
    cfg = JacobiConfig(nx=8, ny=4, iters=1, warmup=0)
    with pytest.raises(ValueError, match="interior rows"):
        partition_rows(cfg, 0, 3)


def test_times_are_positive_and_scale_sane():
    r2 = launch_variant("uniconn:gpuccl", JacobiConfig(nx=64, ny=66, iters=5, warmup=1), 2)
    r4 = launch_variant("uniconn:gpuccl", JacobiConfig(nx=64, ny=66, iters=5, warmup=1), 4)
    assert all(r.total_time > 0 for r in r2 + r4)
    # Strong scaling: more GPUs -> each holds less work; per-iteration time
    # must not grow dramatically.
    assert max(r.time_per_iter for r in r4) < 2.0 * max(r.time_per_iter for r in r2)


def test_uniconn_overhead_vs_native_small():
    """Paper Fig. 5 claim: Uniconn within ~1% of native."""
    cfg = JacobiConfig(nx=512, ny=514, iters=10, warmup=2)
    t_native = max(r.total_time for r in launch_variant("gpuccl-native", cfg, 4))
    t_uniconn = max(r.total_time for r in launch_variant("uniconn:gpuccl", cfg, 4))
    overhead = (t_uniconn - t_native) / t_native
    assert -0.02 < overhead < 0.05, f"overhead {overhead:.2%}"


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown backend 'cuda-ipc'"):
        launch_variant("cuda-ipc", CFG, 2)


@pytest.mark.xfail(strict=True, reason="replayed payload effects diverge from "
                   "the live run (benchmarks/perf/README.md; ROADMAP 4b)")
@pytest.mark.parametrize("variant", ["uniconn:mpi", "mpi-native", "gpuccl-native"])
def test_capture_replay_preserves_solution(variant):
    cfg = JacobiConfig(nx=64, ny=66, iters=40, warmup=2)
    results = launch_variant(variant, cfg, 8, collect=True, capture="regions")
    assert results.stats["capture"]["replays"] >= 1
    np.testing.assert_array_equal(assemble(cfg, results), reference(cfg))
