"""Shared configuration for the figure/table benchmarks.

One scale: problem sizes are scaled down from the paper's so that every
figure's shape reproduces in minutes (ROADMAP item 3 has the per-figure
times). All timings are virtual-clock measurements; pytest-benchmark
records the harness wall time on top.
"""

from __future__ import annotations

from repro.apps.osu import OsuConfig, default_sizes
from repro.serve.matrix import expand_matrix  # noqa: F401  (re-export)

# Sweep grids across the benchmarks (chaos_sweep scenario matrix,
# bench_coll's kind x policy cells, `repro submit --sweep`) all expand
# through repro.serve.expand_matrix: first axis outermost, values in the
# order given — the exact order the hand-written nested loops used, so
# seeded scenario identities are preserved by construction.


def osu_config() -> OsuConfig:
    return OsuConfig(sizes=tuple(default_sizes(4, 4 << 20)),
                     iters_small=30, warmup_small=3,
                     iters_large=8, warmup_large=1, repeats=3)


def jacobi_dims() -> tuple:
    # Paper: 2^14 x 2^14, 100K iters. Scaled: the overheads are relative.
    return 512, 514, 12, 2


def jacobi_gpu_counts() -> list:
    return [4, 8, 16, 32, 64]


def cg_sizes() -> dict:
    # The MPI-vs-GPUCCL gap needs MB-scale direction vectors (the paper's
    # matrices have 1.4M-4.1M rows); below ~1 MB the fixed launch overheads
    # dominate instead. These sizes keep the paper's regime at CI speed.
    return {"serena": (163840, 33), "queen": (114688, 80)}


def cg_iters() -> int:
    return 12


def jacobi_attribution(variant: str, nranks: int = 4, machine: str = "perlmutter",
                       nx: int = 128, iters: int = 10) -> dict:
    """Where a Jacobi run's time goes, per the observability subsystem.

    Runs the variant once at obs level "spans" and reduces the per-rank
    compute/comm/sync/idle breakdown (docs/OBSERVABILITY.md) to makespan
    shares, so EXPERIMENTS.md can attribute each variant's overhead rather
    than just report its total.
    """
    from repro.apps.jacobi import JacobiConfig, launch_variant
    from repro.obs import analyze_records
    from repro.sim import Tracer

    cfg = JacobiConfig(nx=nx, ny=nx + 2, iters=iters, warmup=max(1, iters // 10))
    tracer = Tracer()
    report = launch_variant(variant, cfg, nranks, machine=machine,
                            tracer=tracer, obs="spans")
    analysis = analyze_records(tracer.records, n_ranks=nranks,
                               total_time=report.stats.get("virtual_time"))
    total = analysis.total_time or 1.0
    shares = {"compute": 0.0, "comm": 0.0, "sync": 0.0, "idle": 0.0}
    for rank in analysis.ranks:
        for bucket in shares:
            shares[bucket] += getattr(rank, bucket)
    n = max(1, len(analysis.ranks))
    critical = sum(seg.duration for seg in analysis.critical_path)
    return {
        "variant": variant,
        "nranks": nranks,
        "virtual_time_s": total,
        "shares_pct": {k: 100.0 * v / (n * total) for k, v in shares.items()},
        "critical_path_pct": 100.0 * critical / total,
    }
