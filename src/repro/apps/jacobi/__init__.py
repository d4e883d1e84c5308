"""Jacobi 2D solver: native per-library variants plus one Uniconn variant.

Variant registry keys match the paper's legend:
``mpi-native``, ``gpuccl-native``, ``gpushmem-host-native``,
``gpushmem-device-native``, and ``uniconn:<backend>[:<mode>]`` via
:func:`run_variant`.
"""

from __future__ import annotations

from ...launcher import RankContext, launch
from .. import parse_variant
from . import (
    elastic,
    native_gpuccl,
    native_gpushmem_device,
    native_gpushmem_host,
    native_mpi,
    uniconn,
)
from .domain import JacobiConfig, init_global, partition_rows, serial_jacobi
from .harness import JacobiResult, assemble
from .kernels import JacobiState

__all__ = [
    "JacobiConfig",
    "JacobiResult",
    "JacobiState",
    "NATIVE_VARIANTS",
    "run_variant",
    "launch_variant",
    "serial_jacobi",
    "init_global",
    "partition_rows",
    "assemble",
]

NATIVE_VARIANTS = {
    "mpi-native": native_mpi.run,
    "gpuccl-native": native_gpuccl.run,
    "gpushmem-host-native": native_gpushmem_host.run,
    "gpushmem-device-native": native_gpushmem_device.run,
}


def run_variant(rank_ctx: RankContext, variant: str, cfg: JacobiConfig, collect: bool = False) -> JacobiResult:
    """Dispatch one rank's Jacobi run by variant name
    (:func:`repro.apps.parse_variant`); the elastic recovery variant is
    ``elastic:<backend>`` (docs/FAULTS.md).
    """
    family, backend, mode = parse_variant(variant)
    if family == "native":
        return NATIVE_VARIANTS[variant](rank_ctx, cfg, collect=collect)
    if family == "elastic":
        return elastic.run(rank_ctx, cfg, backend=backend, collect=collect)
    return uniconn.run(rank_ctx, cfg, backend=backend, launch_mode=mode, collect=collect)


def launch_variant(
    variant: str,
    cfg: JacobiConfig,
    nranks: int,
    *,
    machine: str = "perlmutter",
    collect: bool = False,
    **run_options,
):
    """Launch a whole Jacobi job for one variant.

    Returns the :class:`~repro.launcher.RunReport` (a list of per-rank
    results carrying ``stats``/``metrics``/``faults``). ``run_options`` are
    :func:`repro.launcher.launch`'s keywords (``tracer``, ``fault_plan``,
    ``obs``, ``sanitize``, ``coll``, ``capture``, ...), named, validated and
    defaulted there.
    """
    return launch(run_variant, nranks, machine=machine, args=(variant, cfg, collect),
                  **run_options)
