"""Global defaults: the analogue of Uniconn's compile-time definitions.

The C++ library selects the default backend and launch mode through
compile-time definitions (paper Section V). The Python reproduction keeps a
process-global configuration with the same role; explicit template-style
arguments always override it. Run options (obs, sanitize, capture, faults,
...) are *not* here: they are arguments of ``launcher.launch``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from .hardware.profiles import UniconnCosts

__all__ = ["UniconnConfig", "get_config", "set_config", "configured"]


@dataclass(frozen=True)
class UniconnConfig:
    """Process-wide Uniconn defaults."""

    backend: str = "mpi"  # "mpi" | "gpuccl" | "gpushmem"
    launch_mode: str = "PureHost"  # "PureHost" | "PartialDevice" | "PureDevice"
    costs: UniconnCosts = field(default_factory=UniconnCosts)
    # Experimental (paper Section V-A future work): route the MPI backend's
    # Post/Acknowledge over MPI-3 one-sided windows (put + signal) instead
    # of two-sided send/recv. Requires communication buffers from
    # Memory.alloc, which become window-backed under this flag.
    mpi_rma: bool = False


_config = UniconnConfig()


def get_config() -> UniconnConfig:
    """The current process-wide Uniconn configuration."""
    return _config


def set_config(**changes) -> UniconnConfig:
    """Replace fields of the global configuration; returns the new config."""
    global _config
    _config = replace(_config, **changes)
    return _config


@contextmanager
def configured(**changes) -> Iterator[UniconnConfig]:
    """Temporarily override configuration fields."""
    global _config
    saved = _config
    _config = replace(_config, **changes)
    try:
        yield _config
    finally:
        _config = saved
