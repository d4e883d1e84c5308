"""OSU-style collective sweeps (osu_allreduce / osu_allgather and friends).

All ranks run the same collective ``iters`` times per message size and the
slowest rank's averaged time is reported — the OSU collective methodology.
Unlike the ping-pong benchmarks these run at job scale (``--gpus``), which
is where the algorithm choice (docs/COLLECTIVES.md) shows: latency-bound
trees/recursive-doubling win small messages, the bandwidth-optimal ring
wins large ones. ``coll=`` forwards a :mod:`repro.coll` policy, so the same
sweep measures the backend's default algorithm, a forced catalogue entry, or the
autotuned selection.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...core import Communicator, Coordinator, Environment, Memory
from ...launcher import RankContext
from .config import OsuConfig, paper_mean

__all__ = ["COLLECTIVE_KINDS", "run_collective"]

#: Collectives the sweep knows how to drive through the Coordinator.
COLLECTIVE_KINDS = ("all_reduce", "all_gather", "broadcast", "reduce_scatter")


def _count(nbytes: int) -> int:
    return max(1, nbytes // 4)  # float32 elements


def _buffers(env, kind: str, n: int, p: int):
    """(send, recv, rounder) for one collective kind; ``n`` is the per-call
    element count (per rank for all_gather/reduce_scatter, total else)."""
    if kind == "all_gather":
        return Memory.alloc(env, n, dtype=np.float32), \
            Memory.alloc(env, n * p, dtype=np.float32)
    if kind == "reduce_scatter":
        return Memory.alloc(env, n * p, dtype=np.float32), \
            Memory.alloc(env, n, dtype=np.float32)
    return Memory.alloc(env, n, dtype=np.float32), \
        Memory.alloc(env, n, dtype=np.float32)


def _collective_body(ctx: RankContext, cfg: OsuConfig, backend: str,
                     kind: str) -> Dict[int, float]:
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"unknown collective kind {kind!r}; "
                         f"known: {COLLECTIVE_KINDS}")
    env = Environment(ctx, backend=backend)
    env.set_device(env.node_rank())
    comm = Communicator(env)
    stream = env.device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode="PureHost")
    p = comm.global_size()
    engine = ctx.engine
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        send, recv = _buffers(env, kind, n, p)
        send.write(np.full(send.size, float(comm.global_rank() + 1), np.float32))

        def one_round():
            if kind == "all_reduce":
                coord.all_reduce(send, recv, n, "sum", comm)
            elif kind == "all_gather":
                coord.all_gather(send, recv, n, comm)
            elif kind == "broadcast":
                coord.broadcast(recv, n, 0, comm)
            else:
                coord.reduce_scatter(send, recv, n, "sum", comm)

        iters, warmup = cfg.iters_for(nbytes)
        samples = []
        for _ in range(cfg.repeats):
            for _ in range(warmup):
                one_round()
            comm.barrier(stream=stream)
            stream.synchronize()
            t0 = engine.now
            for _ in range(iters):
                one_round()
            stream.synchronize()
            samples.append((engine.now - t0) / iters)
        out[nbytes] = paper_mean(samples)
        comm.barrier(stream=stream)
        stream.synchronize()
        Memory.free(env, recv)
        Memory.free(env, send)
    env.close()
    return out if ctx.rank == 0 else None


def run_collective(backend: str, kind: str, cfg: OsuConfig = None,
                   machine: str = "perlmutter", gpus: int = 8,
                   coll=None) -> Dict[int, float]:
    """Sweep one collective at job scale; returns {bytes: seconds/call}.

    The returned times are the slowest participant's (rank 0 reads the
    synchronized clock after its own barrier, which a collective's
    completion semantics make the job-wide finish time).
    """
    from ...launcher import launch

    cfg = cfg or OsuConfig()
    results = launch(_collective_body, gpus, machine=machine,
                     args=(cfg, backend, kind), coll=coll)
    return results[0]
