"""Python reproduction of UNICONN (CLUSTER 2025) on a simulated multi-GPU
cluster.

Quick start::

    from repro import launch, Environment, Communicator, Coordinator, Memory
    from repro.core import GpucclBackend, LaunchMode

    def app(ctx):
        env = Environment(ctx, backend=GpucclBackend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        ...

    launch(app, n_ranks=8, machine="perlmutter")

See README.md for the full tour and DESIGN.md for the architecture.
"""

from .config import UniconnConfig, configured, get_config, set_config
from .core import (
    Communicator,
    Coordinator,
    Environment,
    GpucclBackend,
    GpushmemBackend,
    IN_PLACE,
    LaunchMode,
    MPIBackend,
    Memory,
    ReductionOperator,
    ThreadGroup,
)
from .launcher import Job, RankContext, RunReport, launch

__version__ = "1.0.0"

__all__ = [
    "UniconnConfig",
    "configured",
    "get_config",
    "set_config",
    "Communicator",
    "Coordinator",
    "Environment",
    "GpucclBackend",
    "GpushmemBackend",
    "IN_PLACE",
    "LaunchMode",
    "MPIBackend",
    "Memory",
    "ReductionOperator",
    "ThreadGroup",
    "launch",
    "Job",
    "RankContext",
    "RunReport",
    "__version__",
]
