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

Importing the package loads nothing: every public name, and every
subpackage reachable as an attribute of a bare ``import repro``
(``repro.core``, ``repro.sim``, ...), is resolved on first use, so
``python -m repro submit`` answering from the result store never imports
the simulator (docs/SERVE.md, "What a submit costs").
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Communicator": "core",
    "Coordinator": "core",
    "Environment": "core",
    "GpucclBackend": "core",
    "GpushmemBackend": "core",
    "IN_PLACE": "core",
    "LaunchMode": "core",
    "MPIBackend": "core",
    "Memory": "core",
    "ReductionOperator": "core",
    "ThreadGroup": "core",
    "launch": "launcher",
    "Job": "launcher",
    "RankContext": "launcher",
    "RunReport": "launcher",
}

#: Subpackages reachable as ``repro.<name>`` without importing them first.
_SUBMODULES = ("backends", "coll", "core", "errors", "gpu",
               "hardware", "launcher", "obs", "sim")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Resolve a public name or subpackage on first use (PEP 562)."""
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
