"""Conjugate Gradient solver: native variants + one Uniconn variant."""

from __future__ import annotations

from ...launcher import RankContext, launch
from .. import parse_variant
from . import elastic, native_gpuccl, native_gpushmem_device, native_gpushmem_host, native_mpi, uniconn
from .harness import CgResult, assemble_x
from .matrices import MATRICES, queen_like, serena_like, synthetic_spd
from .solver import CgConfig, CgProblem, CgState, final_residual, make_problem, row_partition, serial_cg

__all__ = [
    "CgConfig",
    "CgProblem",
    "CgResult",
    "CgState",
    "NATIVE_VARIANTS",
    "run_variant",
    "launch_variant",
    "assemble_x",
    "final_residual",
    "make_problem",
    "row_partition",
    "serial_cg",
    "synthetic_spd",
    "serena_like",
    "queen_like",
    "MATRICES",
]

NATIVE_VARIANTS = {
    "mpi-native": native_mpi.run,
    "gpuccl-native": native_gpuccl.run,
    "gpushmem-host-native": native_gpushmem_host.run,
    "gpushmem-device-native": native_gpushmem_device.run,
}


def run_variant(rank_ctx: RankContext, variant: str, cfg: CgConfig, problem: CgProblem,
                collect: bool = False) -> CgResult:
    """Dispatch one rank's CG run by variant name (same scheme as Jacobi).

    ``elastic:<backend>`` selects the shrink-and-replay recovery variant
    (docs/FAULTS.md).
    """
    family, backend, mode = parse_variant(variant)
    if family == "native":
        return NATIVE_VARIANTS[variant](rank_ctx, cfg, problem, collect=collect)
    if family == "elastic":
        return elastic.run(rank_ctx, cfg, problem, backend=backend, collect=collect)
    return uniconn.run(rank_ctx, cfg, problem, backend=backend, launch_mode=mode, collect=collect)


def launch_variant(
    variant: str,
    cfg: CgConfig,
    nranks: int,
    *,
    machine: str = "perlmutter",
    problem: CgProblem = None,
    collect: bool = False,
    **run_options,
):
    """Launch a whole CG job for one variant; returns the RunReport.

    ``run_options`` are :func:`repro.launcher.launch`'s keywords, forwarded
    untouched (same contract as Jacobi's ``launch_variant``).
    """
    if problem is None:
        problem = make_problem(cfg)
    return launch(run_variant, nranks, machine=machine, args=(variant, cfg, problem, collect),
                  **run_options)
