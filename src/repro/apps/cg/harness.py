"""Shared scaffolding for the CG variants: state setup, timing, results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ...gpu import GpuEvent, elapsed
from ...launcher import RankContext
from .solver import CgConfig, CgProblem, CgState, make_problem, row_block, row_partition

__all__ = ["CgResult", "setup_state", "measure_cg", "assemble_x"]


@dataclass
class CgResult:
    rank: int
    nranks: int
    total_time: float
    time_per_iter: float
    x_local: Optional[np.ndarray] = None
    restarts: int = 0  # recovery replays (elastic variant only)


def setup_state(
    rank_ctx: RankContext,
    problem: CgProblem,
    alloc_comm: Callable,
) -> CgState:
    """Partition the matrix and allocate/initialize all solver buffers.

    ``alloc_comm(count)`` must allocate float64 communication memory (plain
    or symmetric); local-only vectors are plain device memory.
    """
    me, p = rank_ctx.rank, rank_ctx.world_size
    device = rank_ctx.require_device()
    n = problem.a.shape[0]
    counts, displs = row_partition(n, p)
    lo, cnt = displs[me], counts[me]
    a_local = row_block(problem.a, lo, cnt)
    b_local = problem.b[lo : lo + cnt]

    state = CgState(
        a_local=a_local,
        p_full=alloc_comm(n),
        q=device.malloc(cnt, np.float64),
        x=device.malloc(cnt, np.float64),
        r=device.malloc(cnt, np.float64),
        pq=alloc_comm(1),
        rs=alloc_comm(1),
        rs_new=alloc_comm(1),
        counts=counts,
        displs=displs,
        me=me,
    )
    # x = 0; r = b; p = r. The initial global <r,r> is reduced by the
    # variant (its own AllReduce) before the timed loop.
    state.r.write(b_local)
    state.p_local_view()[:] = b_local
    state.rs.data[0] = float(b_local @ b_local)  # local part, pre-reduce
    return state


def measure_cg(
    rank_ctx: RankContext,
    cfg: CgConfig,
    stream,
    iteration: Callable[[], None],
    barrier: Callable[[], None],
    collect: bool,
    state: CgState,
) -> CgResult:
    """Time ``cfg.iters`` iterations with GPU events (paper: no warm-up)."""
    device = rank_ctx.require_device()
    barrier()
    stream.synchronize()
    start, end = GpuEvent(device, "cg-start"), GpuEvent(device, "cg-end")
    start.record(stream)
    for _ in range(cfg.iters):
        iteration()
    end.record(stream)
    end.synchronize()
    total = elapsed(start, end)
    return CgResult(
        rank=rank_ctx.rank,
        nranks=rank_ctx.world_size,
        total_time=total,
        time_per_iter=total / cfg.iters,
        x_local=state.x.read() if collect else None,
    )


def assemble_x(results: List[CgResult], n: int) -> np.ndarray:
    """Glue per-rank solution segments back together."""
    counts, displs = row_partition(n, len(results))
    x = np.zeros(n)
    for res in results:
        x[displs[res.rank] : displs[res.rank] + counts[res.rank]] = res.x_local
    return x
