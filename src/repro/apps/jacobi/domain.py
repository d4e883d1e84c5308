"""Jacobi 2D problem setup: partitioning, initialization, serial reference.

The grid is ny x nx with Dirichlet boundaries (top row 1.0, bottom row 2.0,
left/right columns 0.0, matching nothing in particular — any fixed boundary
exercises the same communication). It is partitioned in contiguous row
blocks along y (the paper's layout); each rank updates its interior rows
and exchanges one halo row with each neighbour per iteration.

The 5-point update is order-independent per element, so a distributed run
must agree *bitwise* with the serial reference — which is exactly what the
integration tests assert, making any ordering/synchronization bug in the
backends fatal rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["JacobiConfig", "Partition", "partition_rows", "init_global", "init_local", "serial_jacobi", "stencil_cost"]

from ...hardware.gpu import KernelCost


@dataclass(frozen=True)
class JacobiConfig:
    """One Jacobi experiment (paper: nx = ny = 2^14, 100K iterations)."""

    nx: int = 256
    ny: int = 256
    iters: int = 100
    warmup: int = 10

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must be at least 3x3")
        if self.iters < 1 or self.warmup < 0:
            raise ValueError("invalid iteration counts")


@dataclass(frozen=True)
class Partition:
    """One rank's slab of interior rows [row_start, row_end)."""

    rank: int
    nranks: int
    nx: int
    ny: int
    row_start: int  # first interior row owned (global index)
    row_end: int  # one past the last owned row
    # Derived once from the fields above (out of equality and repr): the
    # halo exchange reads them on every iteration.
    chunk: int = field(init=False, repr=False, compare=False)
    """Number of interior rows this rank owns."""
    has_top: bool = field(init=False, repr=False, compare=False)
    """True if a neighbouring rank owns the row above (not a boundary)."""
    has_bottom: bool = field(init=False, repr=False, compare=False)
    """True if a neighbouring rank owns the row below."""
    top: int = field(init=False, repr=False, compare=False)
    """Rank of the neighbour above."""
    bottom: int = field(init=False, repr=False, compare=False)
    """Rank of the neighbour below."""

    def __post_init__(self) -> None:
        derived = dict(chunk=self.row_end - self.row_start, has_top=self.rank > 0,
                       has_bottom=self.rank < self.nranks - 1,
                       top=self.rank - 1, bottom=self.rank + 1)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def partition_rows(cfg: JacobiConfig, rank: int, nranks: int) -> Partition:
    """Split the interior rows [1, ny-1) into contiguous near-equal slabs."""
    interior = cfg.ny - 2
    if nranks > interior:
        raise ValueError(f"{nranks} ranks for only {interior} interior rows")
    base, extra = divmod(interior, nranks)
    start = 1 + rank * base + min(rank, extra)
    end = start + base + (1 if rank < extra else 0)
    return Partition(rank, nranks, cfg.nx, cfg.ny, start, end)


def init_global(cfg: JacobiConfig) -> np.ndarray:
    """The full initial grid with Dirichlet boundaries."""
    grid = np.zeros((cfg.ny, cfg.nx), dtype=np.float32)
    grid[0, :] = 1.0
    grid[-1, :] = 2.0
    grid[:, 0] = 0.0
    grid[:, -1] = 0.0
    return grid


def init_local(cfg: JacobiConfig, part: Partition) -> np.ndarray:
    """One rank's (chunk+2) x nx slab, halo rows pre-filled from the
    initial condition (so iteration 0 needs no prior exchange)."""
    full = init_global(cfg)
    return full[part.row_start - 1 : part.row_end + 1].copy()


def serial_jacobi(cfg: JacobiConfig, iters: int = None) -> np.ndarray:
    """Reference solution on a single process."""
    n = cfg.iters if iters is None else iters
    a = init_global(cfg)
    anew = a.copy()
    for _ in range(n):
        anew[1:-1, 1:-1] = 0.25 * (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        )
        a, anew = anew, a
    return a


def stencil_cost(chunk: int, nx: int) -> KernelCost:
    """Roofline cost of one slab update: streaming read + write + 4 flops."""
    n = chunk * nx
    return KernelCost(bytes_moved=8.0 * n, flops=4.0 * n)
