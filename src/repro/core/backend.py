"""Backend type tags: the analogue of Uniconn's backend template argument.

Applications select the communication library by passing one of these types
(`MPIBackend`, `GpucclBackend`, `GpushmemBackend`) to every Uniconn
construct — exactly the paper's ``Environment<Backend>`` pattern — or by
name (``repro.options.BACKENDS``), or rely on the default, MPI.
"""

from __future__ import annotations

from typing import Type, Union

from ..errors import UniconnError

__all__ = ["Backend", "MPIBackend", "GpucclBackend", "GpushmemBackend", "resolve_backend", "BackendLike"]


class Backend:
    """Base class for backend tags (never instantiated)."""

    name: str = "?"
    supports_device_api: bool = False

    def __init__(self) -> None:  # pragma: no cover - misuse guard
        raise UniconnError("backend tags are types, not instances")


class MPIBackend(Backend):
    """GPU-aware MPI: two-sided, host-driven, no stream integration."""

    name = "mpi"
    supports_device_api = False


class GpucclBackend(Backend):
    """NCCL/RCCL: two-sided, stream-ordered, group semantics."""

    name = "gpuccl"
    supports_device_api = False


class GpushmemBackend(Backend):
    """NVSHMEM: one-sided PGAS with host and device APIs."""

    name = "gpushmem"
    supports_device_api = True


#: Backend name -> tag. ``mpi-rma`` (one-sided Post/Acknowledge, paper
#: Section V-A future work) is MPI's tag; ``Environment.mpi_rma`` keeps it.
_BY_NAME = {"mpi": MPIBackend, "mpi-rma": MPIBackend, "gpuccl": GpucclBackend,
            "gpushmem": GpushmemBackend}

BackendLike = Union[str, Type[Backend], None]


def resolve_backend(backend: BackendLike) -> Type[Backend]:
    """Normalize a tag/type/name/None (= MPI) to a tag type."""
    if backend is None:
        return MPIBackend
    if isinstance(backend, str):
        try:
            return _BY_NAME[backend.lower()]
        except KeyError:
            raise UniconnError(
                f"unknown backend {backend!r}; known: {sorted(_BY_NAME)}"
            ) from None
    if isinstance(backend, type) and issubclass(backend, Backend):
        return backend
    raise UniconnError(f"not a backend: {backend!r}")
