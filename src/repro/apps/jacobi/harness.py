"""Shared scaffolding for all Jacobi variants: buffers, timing, collection.

Timing follows the paper's methodology (Section VI-A2): GPU-event timing on
the application's main stream, warm-up iterations first, then a barrier,
then the measured loop between two recorded events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ...gpu import GpuEvent, dim3, elapsed
from ...launcher import RankContext
from ...sim.capture import loop_region
from .domain import JacobiConfig, Partition, init_local, partition_rows
from .kernels import JacobiState

__all__ = ["JacobiResult", "make_state", "launch_dims", "measure_loop", "collect_interior"]


@dataclass
class JacobiResult:
    """Per-rank outcome of one Jacobi run."""

    rank: int
    nranks: int
    total_time: float  # virtual seconds for the measured iterations
    time_per_iter: float
    interior: Optional[np.ndarray] = None  # owned rows (for verification)
    restarts: int = 0  # recovery replays taken (elastic:<backend> only)


def make_state(rank_ctx: RankContext, cfg: JacobiConfig, alloc_comm: Callable, alloc_sig=None) -> JacobiState:
    """Allocate and initialize one rank's solver state.

    ``alloc_comm(count)`` allocates a communication staging buffer (plain
    device memory for two-sided backends, symmetric for GPUSHMEM);
    ``alloc_sig(count)`` allocates the uint64 signal words when needed.
    """
    part = partition_rows(cfg, rank_ctx.rank, rank_ctx.world_size)
    device = rank_ctx.require_device()
    local = init_local(cfg, part)
    a = device.malloc(local.size, np.float32)
    anew = device.malloc(local.size, np.float32)
    a.write(local.reshape(-1))
    anew.write(local.reshape(-1))
    nx = cfg.nx
    halo_in = (alloc_comm(2 * nx), alloc_comm(2 * nx))
    bound_out = alloc_comm(2 * nx)
    sig = alloc_sig(4) if alloc_sig is not None else None
    return JacobiState(part, a, anew, halo_in, bound_out, sig)


def launch_dims(part: Partition) -> Tuple[tuple, tuple]:
    """Grid/block dims covering the slab with 16x16 thread blocks."""
    bx, by = 16, 16
    gx = (part.nx + bx - 1) // bx
    gy = (part.chunk + by - 1) // by
    return dim3(gx, gy), dim3(bx, by)


def coop_launch_dims(part: Partition, device) -> Tuple[tuple, tuple]:
    """Launch dims for cooperative (device-API) kernels.

    Cooperative launches cannot exceed the resident-block limit (no
    preemption — the constraint the paper's Section II-B points out), so
    device kernels use grid-stride loops over a capped grid.
    """
    grid, block = launch_dims(part)
    gx, gy, _ = grid
    limit = device.model.max_coop_blocks
    while gx * gy > limit and gy > 1:
        gy = (gy + 1) // 2
    while gx * gy > limit and gx > 1:
        gx = (gx + 1) // 2
    return dim3(gx, gy), block


def measure_loop(
    rank_ctx: RankContext,
    cfg: JacobiConfig,
    stream,
    step: Callable[[], None],
    barrier: Callable[[], None],
) -> Tuple[float, float]:
    """Warm up, synchronize, then time ``cfg.iters`` steps with GPU events."""
    device = rank_ctx.require_device()
    for _ in range(cfg.warmup):
        step()
    barrier()
    stream.synchronize()
    # The steady-state loop: annotated for graph capture & replay. The
    # pointer swap in step() gives the timeline a period of 2 iterations.
    region = loop_region(
        rank_ctx.engine, "jacobi.measure", parity=2, min_period=2
    )
    start, end = GpuEvent(device, "start"), GpuEvent(device, "end")
    start.record(stream)
    i = 0
    while i < cfg.iters:
        # The stream lets a fully-async loop (whose host-side marks all
        # collapse into one timer window) fall back to device-order
        # boundary markers instead of disabling capture.
        i += region.boundary(rank_ctx.rank, i, cfg.iters, stream=stream)
        if i >= cfg.iters:
            break
        step()
        i += 1
    end.record(stream)
    end.synchronize()
    total = elapsed(start, end)
    return total, total / cfg.iters


def collect_interior(state: JacobiState) -> np.ndarray:
    """This rank's owned rows of the final grid (the swap means the latest
    values live in ``a`` after the last swap)."""
    part = state.part
    grid = state.a.data.reshape(part.chunk + 2, part.nx)
    return grid[1 : part.chunk + 1].copy()


def assemble(cfg: JacobiConfig, results) -> np.ndarray:
    """Glue per-rank interiors (plus boundaries) back into a full grid."""
    from .domain import init_global

    full = init_global(cfg)
    for res in results:
        part = partition_rows(cfg, res.rank, res.nranks)
        full[part.row_start : part.row_end] = res.interior
    return full
