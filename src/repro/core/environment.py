"""The Uniconn Environment (paper Section IV-B).

One Environment per rank handles the whole initialization/termination maze
the paper motivates: it always brings up MPI (every backend bootstraps
through a CPU-side library), initializes the selected backend's own runtime
(NCCL unique-id broadcast over MPI; nvshmem_init), exposes global/node rank
queries, and selects the GPU. It is a context manager: leaving the ``with``
block is the RAII teardown of Listing 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends.gpushmem import ShmemContext
from ..backends.mpi import MpiContext
from ..errors import UniconnError
from ..launcher import RankContext
from .backend import BackendLike, GpushmemBackend, resolve_backend

__all__ = ["Environment"]


class Environment:
    """Backend-parameterized library setup/teardown for one rank.

    The rank context is the one mandatory input; ``backend=None`` is MPI::

        with Environment(ctx, backend=GpucclBackend) as env:
            ...

    ``backend="mpi-rma"`` is MPI (``env.backend is MPIBackend``) with
    ``mpi_rma`` true: one-sided Post/Acknowledge over window-backed memory.
    """

    def __init__(self, rank_ctx: RankContext, *, backend: BackendLike = None):
        if not isinstance(rank_ctx, RankContext):
            raise UniconnError("Environment needs the rank context (the simulated process)")
        self.backend = resolve_backend(backend)
        self.mpi_rma = isinstance(backend, str) and backend.lower() == "mpi-rma"
        self.rank_ctx = rank_ctx
        self.engine = rank_ctx.engine
        self.cluster = rank_ctx.cluster
        self.costs = rank_ctx.cluster.machine.uniconn
        # Every backend bootstraps over a CPU-side communication library.
        self.mpi = MpiContext(rank_ctx)
        self._shmem: Optional[ShmemContext] = None
        self._closed = False
        self.engine.metrics.inc(
            "environment_init_total", backend=self.backend.name, rank=rank_ctx.rank
        )

    # ------------------------------------------------------------------ #
    # Process/topology queries (paper's WorldRank/WorldSize/NodeRank).
    # ------------------------------------------------------------------ #

    def world_rank(self) -> int:
        """Global rank of this process (paper WorldRank)."""
        return self.rank_ctx.rank

    def world_size(self) -> int:
        """Total processes (paper WorldSize)."""
        return self.rank_ctx.world_size

    def node_rank(self) -> int:
        """Node-local rank (paper NodeRank)."""
        return self.rank_ctx.node_rank

    def node_size(self) -> int:
        """Processes on this node."""
        return self.rank_ctx.node_size

    def set_device(self, local_index: int):
        """Select this rank's GPU (must precede Communicator creation)."""
        return self.rank_ctx.set_device(local_index)

    @property
    def device(self):
        """The selected GPU (set_device must have run)."""
        return self.rank_ctx.require_device()

    # ------------------------------------------------------------------ #
    # Backend runtimes.
    # ------------------------------------------------------------------ #

    @property
    def shmem(self) -> ShmemContext:
        """The GPUSHMEM runtime (lazily initialized; device must be set)."""
        if self.backend is not GpushmemBackend:
            raise UniconnError(f"backend {self.backend.name} has no GPUSHMEM runtime")
        if self._shmem is None:
            self._shmem = ShmemContext(self.rank_ctx)
        return self._shmem

    def bootstrap_gpuccl_uid(self) -> int:
        """Create the GPUCCL unique id on rank 0 and broadcast it over MPI.

        This is the real NCCL bootstrap flow (ncclGetUniqueId + MPI_Bcast),
        reproduced faithfully rather than short-circuited.
        """
        from ..backends.gpuccl import get_unique_id

        token = np.zeros(1, np.int64)
        if self.world_rank() == 0:
            token[0] = get_unique_id().value
        self.mpi.comm_world.bcast(token, 1, root=0)
        return int(token[0])

    # ------------------------------------------------------------------ #
    # Teardown (RAII in the paper; context manager here).
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Tear down the library stack (the RAII destructor)."""
        if self._closed:
            raise UniconnError("Environment closed twice")
        self._closed = True
        self.mpi.finalize()

    def release(self) -> None:
        """Local, non-collective teardown (idempotent).

        The recovery path's destructor: after a shrink, the world is no
        longer all-alive, and the collective ``MPI_Finalize`` handshake in
        :meth:`close` would hang on the crashed ranks. ``release`` marks
        the environment torn down without synchronizing — exactly what the
        context manager does when unwinding an exception.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once the environment was torn down."""
        return self._closed

    def __enter__(self) -> "Environment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            if exc_type is None:
                self.close()
            else:
                # Unwinding after a failure: mark torn down locally without
                # running the collective finalize (peers may be dead, and a
                # collective would turn one rank's error into a hang).
                self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Environment backend={self.backend.name} rank={self.world_rank()}/{self.world_size()}>"
