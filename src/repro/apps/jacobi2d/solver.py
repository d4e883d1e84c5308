"""The 2D-decomposed Jacobi solver over the Uniconn API.

Staging layout per rank (w = tile width, h = tile height):

- ``bound_out`` (2w + 2h): [0:w] row for the up neighbour, [w:2w] row for
  down, [2w:2w+h] column for left, [2w+h:2w+2h] column for right;
- ``halo_in[parity]`` (2w + 2h): [0:w] from up, [w:2w] from down,
  [2w:2w+h] from left, [2w+h:] from right;
- ``sig`` (8): slot ``4*parity + d`` with d in {0: from up, 1: from down,
  2: from left, 3: from right}.

Posting rules mirror the 1D app: my up-facing row lands in the up
neighbour's *from down* slot, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ...core import Communicator, Coordinator, Environment, LaunchMode, Memory
from ...gpu import GpuEvent, device_kernel, dim3, elapsed, kernel
from ...hardware.gpu import KernelCost
from ...launcher import RankContext, launch
from ..jacobi.domain import init_global, serial_jacobi
from ..jacobi.domain import JacobiConfig as _Cfg1D
from .domain import Grid2D, Tile, make_grid

__all__ = ["Jacobi2DConfig", "Jacobi2DResult", "run_2d", "launch_2d", "reference_2d", "assemble_2d"]


@dataclass(frozen=True)
class Jacobi2DConfig:
    nx: int = 64
    ny: int = 64
    iters: int = 20
    warmup: int = 2


@dataclass
class Jacobi2DResult:
    rank: int
    nranks: int
    total_time: float
    time_per_iter: float
    tile: Optional[np.ndarray] = None


@dataclass
class _State:
    tile: Tile
    a: object
    anew: object
    halo_in: tuple
    bound_out: object
    sig: Optional[object]
    it: int = 0

    def freeze(self) -> "_State":
        return _State(self.tile, self.a, self.anew, self.halo_in,
                      self.bound_out, self.sig, self.it)

    def swap(self) -> None:
        self.a, self.anew = self.anew, self.a
        self.it += 1


def _step_math(state: _State) -> None:
    """Unpack halos, 5-point update, pack outgoing boundary strips."""
    t = state.tile
    h, w = t.height, t.width
    a = state.a.data.reshape(h + 2, w + 2)
    anew = state.anew.data.reshape(h + 2, w + 2)
    halo = state.halo_in[state.it % 2].data
    if t.up is not None:
        a[0, 1 : w + 1] = halo[0:w]
    if t.down is not None:
        a[h + 1, 1 : w + 1] = halo[w : 2 * w]
    if t.left is not None:
        a[1 : h + 1, 0] = halo[2 * w : 2 * w + h]
    if t.right is not None:
        a[1 : h + 1, w + 1] = halo[2 * w + h : 2 * w + 2 * h]
    anew[1 : h + 1, 1 : w + 1] = 0.25 * (
        a[0:h, 1 : w + 1] + a[2 : h + 2, 1 : w + 1]
        + a[1 : h + 1, 0:w] + a[1 : h + 1, 2 : w + 2]
    )
    out = state.bound_out.data
    out[0:w] = anew[1, 1 : w + 1]
    out[w : 2 * w] = anew[h, 1 : w + 1]
    out[2 * w : 2 * w + h] = anew[1 : h + 1, 1]
    out[2 * w + h : 2 * w + 2 * h] = anew[1 : h + 1, w]


def _cost(ctx, state: _State) -> KernelCost:
    n = state.tile.height * state.tile.width
    return KernelCost(bytes_moved=8.0 * n, flops=4.0 * n)


@kernel(name="jacobi2d_kernel", cost=_cost)
def _host_kernel(ctx, state: _State) -> None:
    _step_math(state)


def _exchanges(state: _State):
    """Post tuples (send view, remote dest view, count, signal slot, peer)
    and acknowledge tuples (my incoming view, count, wait slot, peer) for
    each active direction, at the *next* parity.

    A post's destination is addressed in the PEER's halo buffer (their
    opposite-direction segment); an acknowledge names MY OWN segment for
    that direction — two different offsets.
    """
    t = state.tile
    w, h = t.width, t.height
    nxt = (state.it + 1) % 2
    out, halo = state.bound_out, state.halo_in[nxt]
    posts, acks = [], []
    def peer_dims(peer):
        pt = Tile.of(t.grid, peer)
        return pt.width, pt.height

    for peer, src_off, n, post_dest_fn, set_slot, ack_off, wait_slot in (
        # my top row -> their 'from down' (their offset uses THEIR width,
        # equal to mine for vertical neighbours); I receive into 'from up'.
        (t.up, 0, w, lambda pw, ph: pw, 1, 0, 0),
        (t.down, w, w, lambda pw, ph: 0, 0, w, 1),
        # my left column -> their 'from right' segment, which starts at
        # 2*their_width + their_height; I receive into my 'from left'.
        (t.left, 2 * w, h, lambda pw, ph: 2 * pw + ph, 3, 2 * w, 2),
        (t.right, 2 * w + h, h, lambda pw, ph: 2 * pw, 2, 2 * w + h, 3),
    ):
        if peer is None:
            continue
        pw, ph = peer_dims(peer)
        posts.append((out.offset_by(src_off, n), halo.offset_by(post_dest_fn(pw, ph), n),
                      n, 4 * nxt + set_slot, peer))
        acks.append((halo.offset_by(ack_off, n), n, 4 * nxt + wait_slot, peer))
    return posts, acks


@device_kernel(name="jacobi2d_dev")
def _device_kernel(ctx, state: _State, comm_d) -> None:
    u = ctx.uniconn
    ctx.compute(_cost(ctx, state))
    _step_math(state)
    val = state.it + 1
    posts, acks = _exchanges(state)
    for src, dest, n, slot, peer in posts:
        u.post(src, dest, n, state.sig.offset_by(slot, 1), val, peer, comm_d)
    for dest, n, slot, peer in acks:
        u.acknowledge(dest, n, state.sig.offset_by(slot, 1), val, peer, comm_d)


def run_2d(
    rank_ctx: RankContext,
    cfg: Jacobi2DConfig,
    backend: Union[str, type, None] = None,
    launch_mode: Union[str, LaunchMode, None] = None,
    collect: bool = False,
) -> Jacobi2DResult:
    """Run the 2D-decomposed Uniconn Jacobi on this rank."""
    env = Environment(rank_ctx, backend=backend)
    env.set_device(env.node_rank())
    comm = Communicator(env)
    device = env.device
    stream = device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode=launch_mode)
    mode = coord.launch_mode

    grid = make_grid(cfg.nx, cfg.ny, rank_ctx.world_size)
    tile = Tile.of(grid, rank_ctx.rank)
    full = init_global(_Cfg1D(nx=cfg.nx, ny=cfg.ny, iters=1, warmup=0))
    local = tile.init_local(full)
    a = device.malloc(local.size, np.float32)
    anew = device.malloc(local.size, np.float32)
    a.write(local.reshape(-1))
    anew.write(local.reshape(-1))
    # Symmetric-heap contract: every PE allocates the same size, so the
    # staging strip is sized for the largest tile in the grid.
    strip = max(
        2 * Tile.of(grid, r).width + 2 * Tile.of(grid, r).height
        for r in range(grid.size)
    )
    halo_in = (Memory.alloc(env, strip), Memory.alloc(env, strip))
    bound_out = Memory.alloc(env, strip)
    sig = Memory.alloc(env, 8, dtype=np.uint64) if coord.uses_signals else None
    state = _State(tile, a, anew, halo_in, bound_out, sig)

    bx, by = 16, 16
    h_grid = dim3((tile.width + bx - 1) // bx, (tile.height + by - 1) // by)
    coord.bind_kernel(LaunchMode.PureHost, _host_kernel, h_grid, dim3(bx, by),
                      args=lambda: (state.freeze(),))
    if mode.uses_device_api:
        comm_d = comm.to_device()
        coord.bind_kernel(LaunchMode.PureDevice, _device_kernel, h_grid, dim3(bx, by),
                          args=lambda: (state.freeze(), comm_d))
    comm.barrier(stream=stream)

    def step() -> None:
        coord.launch_kernel()
        if mode is not LaunchMode.PureDevice:
            val = state.it + 1
            posts, acks = _exchanges(state)
            coord.comm_start()
            for src, dest, n, slot, peer in posts:
                coord.post(src, dest, n,
                           sig.offset_by(slot, 1) if sig is not None else None,
                           val, peer, comm)
            for dest, n, slot, peer in acks:
                coord.acknowledge(dest, n,
                                  sig.offset_by(slot, 1) if sig is not None else None,
                                  val, peer, comm)
            coord.comm_end()
        state.swap()

    for _ in range(cfg.warmup):
        step()
    comm.barrier(stream=stream)
    stream.synchronize()
    start, end = GpuEvent(device, "j2d-start"), GpuEvent(device, "j2d-end")
    start.record(stream)
    for _ in range(cfg.iters):
        step()
    end.record(stream)
    end.synchronize()
    total = elapsed(start, end)

    result = Jacobi2DResult(
        rank=rank_ctx.rank,
        nranks=rank_ctx.world_size,
        total_time=total,
        time_per_iter=total / cfg.iters,
        tile=(state.a.data.reshape(tile.height + 2, tile.width + 2)
              [1:-1, 1:-1].copy() if collect else None),
    )
    env.close()
    return result


def launch_2d(
    cfg: Jacobi2DConfig,
    nranks: int,
    *,
    backend: Union[str, type, None] = "gpuccl",
    launch_mode: Union[str, LaunchMode, None] = None,
    machine: str = "perlmutter",
    collect: bool = False,
    **run_options,
):
    """Launch a whole 2D Jacobi job; returns the :class:`RunReport`.

    ``run_options`` are :func:`repro.launcher.launch`'s keywords, forwarded
    untouched (same contract as ``jacobi.launch_variant``).
    """
    return launch(
        lambda ctx: run_2d(ctx, cfg, backend=backend, launch_mode=launch_mode, collect=collect),
        nranks,
        machine=machine,
        **run_options,
    )


def reference_2d(cfg: Jacobi2DConfig) -> np.ndarray:
    """Serial reference for the 2D configuration."""
    return serial_jacobi(_Cfg1D(nx=cfg.nx, ny=cfg.ny, iters=1, warmup=0),
                         iters=cfg.warmup + cfg.iters)


def assemble_2d(cfg: Jacobi2DConfig, results) -> np.ndarray:
    """Glue per-rank tiles back into the full grid."""
    full = init_global(_Cfg1D(nx=cfg.nx, ny=cfg.ny, iters=1, warmup=0))
    grid = make_grid(cfg.nx, cfg.ny, len(results))
    for res in results:
        t = Tile.of(grid, res.rank)
        full[t.y0 : t.y1, t.x0 : t.x1] = res.tile
    return full
