"""Elastic CG: shrink-and-re-decompose recovery for the paper's CG solver.

Same recovery cycle as :mod:`repro.apps.jacobi.elastic` (see docs/FAULTS.md),
applied to the AllGatherv + AllReduce iteration of :mod:`.uniconn`:

- the committed checkpoint is the full iteration state ``(x, r, p, rs)``
  replicated on every host plus its iteration number. ``x``/``r`` are
  staged with AllGatherv into a pre-allocated symmetric buffer; ``p`` is
  read from ``p_full`` right after the iteration's own gather; ``rs`` is
  the last AllReduced scalar (identical on every rank by construction);
- a failed iteration (backend error, watchdog timeout, peer revocation,
  crashed member) fails the ``agree`` vote, and the survivors revoke,
  shrink, re-partition the matrix rows over the new size, restore their
  segments from the checkpoint, and replay.

CG dot products are reduced, so the trajectory depends on the rank count —
a shrunken run is *not* bitwise-equal to the unshrunken one. What is
guaranteed (and what the chaos sweep asserts) is determinism: the same
(fault spec, seed) reproduces the same recovery schedule and bitwise the
same final ``x``, and the residual still converges to the solver's
tolerance because replay restarts from a mathematically exact state.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ...core import Communicator, Coordinator, Environment, IN_PLACE, Memory
from ...gpu import dim3
from ...launcher import RankContext
from ...resilience import ElasticLoop
from .harness import CgResult
from .solver import (
    CgConfig,
    CgProblem,
    CgState,
    k_dot_pq,
    k_pupdate,
    k_spmv,
    k_update,
    row_block,
    row_partition,
)

__all__ = ["run"]


def run(
    rank_ctx: RankContext,
    cfg: CgConfig,
    problem: CgProblem,
    backend: Union[str, type, None] = None,
    collect: bool = False,
    checkpoint_every: int = 5,
    max_recoveries: int = 16,
) -> CgResult:
    """Run the elastic Uniconn CG on this rank (any backend)."""
    env = Environment(rank_ctx, backend=backend)
    env.set_device(env.node_rank())
    comm = Communicator(env)
    device = env.device
    engine = rank_ctx.engine
    n = problem.a.shape[0]

    # ---- Symmetric allocations: up-front, size independent of nranks ---- #
    p_full = Memory.alloc(env, n, dtype=np.float64)
    pq = Memory.alloc(env, 1, dtype=np.float64)
    rs = Memory.alloc(env, 1, dtype=np.float64)
    rs_new = Memory.alloc(env, 1, dtype=np.float64)
    ck_buf = Memory.alloc(env, n, dtype=np.float64)  # checkpoint gather target

    # ---- Committed checkpoint: full (x, r, p, rs) + iteration number ---- #
    # The initial <r,r> is computed host-side from the replicated b rather
    # than reduced from per-rank partials: no collective runs outside the
    # recovery loop, so even a fault at t=0 lands on a recoverable path,
    # and the value is independent of the (changing) rank count.
    ck = {
        "x": np.zeros(n),
        "r": problem.b.copy(),
        "p": problem.b.copy(),
        "rs": float(problem.b @ problem.b),
        "it": 0,
    }

    cur = {}

    def build(comm_now, generation: int) -> None:
        """(Re)build solver state over ``comm_now`` from the checkpoint."""
        p, me = comm_now.global_size(), comm_now.global_rank()
        counts, displs = row_partition(n, p)
        lo, cnt = displs[me], counts[me]
        state = CgState(
            a_local=row_block(problem.a, lo, cnt),
            p_full=p_full,
            q=device.malloc(cnt, np.float64),
            x=device.malloc(cnt, np.float64),
            r=device.malloc(cnt, np.float64),
            pq=pq,
            rs=rs,
            rs_new=rs_new,
            counts=counts,
            displs=displs,
            me=me,
        )
        state.x.write(ck["x"][lo : lo + cnt])
        state.r.write(ck["r"][lo : lo + cnt])
        p_full.write(ck["p"])
        rs.write(np.array([ck["rs"]]))
        old_stream = cur.get("stream")
        if old_stream is not None:
            # Abandon the failed generation's stream: its still-pending
            # kernels would otherwise complete late and write into the
            # shared symmetric buffers (p_full, pq, rs, rs_new) this
            # rebuild is about to restore.
            old_stream.abort()
        stream = device.create_stream()
        coord = Coordinator(env, stream=stream)
        grid, block = dim3(max(1, cnt // 256)), dim3(256)
        cur.update(state=state, stream=stream, coord=coord,
                   grid=grid, block=block, it=ck["it"], generation=generation)

    loop = ElasticLoop(comm, build, max_recoveries=max_recoveries, label="cg-elastic")
    build(comm, 0)

    staged = {"it": -1}

    def body() -> None:
        """One recoverable CG iteration (stages a checkpoint when due)."""
        state, coord, stream = cur["state"], cur["coord"], cur["stream"]
        grid, block = cur["grid"], cur["block"]
        staged["it"] = -1
        coord.all_gather_v(
            state.p_full.offset_by(state.my_offset, state.n_local),
            state.n_local, state.p_full, state.counts, state.displs, loop.comm,
        )
        if cur["it"] % checkpoint_every == 0 and cur["it"] != ck["it"]:
            stream.synchronize()
            staged["p"] = state.p_full.read().copy()
            coord.all_gather_v(state.x, state.n_local, ck_buf,
                               state.counts, state.displs, loop.comm)
            stream.synchronize()
            staged["x"] = ck_buf.read().copy()
            coord.all_gather_v(state.r, state.n_local, ck_buf,
                               state.counts, state.displs, loop.comm)
            stream.synchronize()
            staged["r"] = ck_buf.read().copy()
            staged["rs"] = float(state.rs.data[0])
            staged["it"] = cur["it"]
        device.launch(k_spmv, grid, block, args=(state,), stream=stream)
        device.launch(k_dot_pq, grid, block, args=(state,), stream=stream)
        coord.all_reduce(IN_PLACE, state.pq, 1, "sum", loop.comm)
        device.launch(k_update, grid, block, args=(state,), stream=stream)
        coord.all_reduce(IN_PLACE, state.rs_new, 1, "sum", loop.comm)
        device.launch(k_pupdate, grid, block, args=(state,), stream=stream)
        stream.synchronize()

    t0 = engine.now
    restarts = 0
    while cur["it"] < cfg.iters:
        if loop.run_step(body):
            if staged["it"] >= 0:
                ck.update(x=staged["x"], r=staged["r"], p=staged["p"],
                          rs=staged["rs"], it=staged["it"])
            cur["it"] += 1
        else:
            restarts += 1
    cur["stream"].synchronize()
    total = engine.now - t0

    state = cur["state"]
    result = CgResult(
        rank=loop.comm.global_rank(),
        nranks=loop.comm.global_size(),
        total_time=total,
        time_per_iter=total / cfg.iters,
        x_local=state.x.read() if collect else None,
        restarts=restarts,
    )
    if loop.generation == 0:
        env.close()
    else:
        env.release()
    return result
