"""OSU-style one-way bandwidth benchmark (windowed), native and Uniconn.

Rank 0 injects a window of concurrent messages (paper: 64), rank 1 returns
a tiny acknowledgment; bandwidth = window x size x iterations / elapsed.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...backends import gpuccl as _ccl
from ...backends.gpuccl import GpucclComm, get_unique_id
from ...backends.gpushmem import ShmemContext
from ...backends.mpi import MpiContext, waitall
from ...core import Communicator, Coordinator, Environment, LaunchMode, Memory
from ...gpu.kernel import device_kernel
from ...launcher import RankContext
from .config import OsuConfig, paper_mean

__all__ = ["BANDWIDTH_VARIANTS", "run_bandwidth"]


def _count(nbytes: int) -> int:
    return max(1, nbytes // 4)


def _measure_bw(engine, cfg: OsuConfig, nbytes: int, one_round, sync=None) -> float:
    iters, warmup = cfg.iters_for(nbytes)
    samples = []
    for _ in range(cfg.repeats):
        for _ in range(warmup):
            one_round()
        if sync:
            sync()
        t0 = engine.now
        for _ in range(iters):
            one_round()
        if sync:
            sync()
        elapsed = engine.now - t0
        samples.append(cfg.window * nbytes * iters / elapsed)
    return paper_mean(samples)


def bandwidth_mpi_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native MPI windowed bandwidth (isend window + ack)."""
    ctx.set_device(ctx.node_rank)
    mpi = MpiContext(ctx)
    comm = mpi.comm_world
    device = ctx.require_device()
    out = {}
    ack = device.malloc(1, np.float32)
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        bufs = [device.malloc(n, np.float32) for _ in range(cfg.window)]
        peer = 1 - comm.rank

        def one_round():
            if comm.rank == 0:
                waitall([comm.isend(b, n, peer) for b in bufs])
                comm.recv(ack, 1, peer, tag=9)
            else:
                waitall([comm.irecv(b, n, peer) for b in bufs])
                comm.send(ack, 1, peer, tag=9)

        out[nbytes] = _measure_bw(ctx.engine, cfg, nbytes, one_round)
        for b in bufs:
            device.free(b)
    mpi.finalize()
    return out if ctx.rank == 0 else None


def bandwidth_gpuccl_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUCCL windowed bandwidth (grouped sends + ack)."""
    ctx.set_device(ctx.node_rank)
    mpi = MpiContext(ctx)
    token = np.zeros(1, np.int64)
    if ctx.rank == 0:
        token[0] = get_unique_id().value
    mpi.comm_world.bcast(token, 1, root=0)
    uid = _ccl.GpucclUniqueId.__new__(_ccl.GpucclUniqueId)
    uid.value = int(token[0])
    comm = GpucclComm(ctx, uid, 2, ctx.rank)
    device = ctx.require_device()
    stream = device.create_stream()
    ack = device.malloc(1, np.float32)
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        bufs = [device.malloc(n, np.float32) for _ in range(cfg.window)]
        peer = 1 - comm.rank

        def one_round():
            _ccl.group_start()
            for b in bufs:
                if comm.rank == 0:
                    comm.send(b, n, peer, stream)
                else:
                    comm.recv(b, n, peer, stream)
            _ccl.group_end()
            if comm.rank == 0:
                comm.recv(ack, 1, peer, stream)
            else:
                comm.send(ack, 1, peer, stream)

        out[nbytes] = _measure_bw(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        for b in bufs:
            device.free(b)
    mpi.finalize()
    return out if ctx.rank == 0 else None


def bandwidth_gpushmem_host_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUSHMEM host-API bandwidth (stream puts + signal)."""
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    device = ctx.require_device()
    stream = device.create_stream()
    me, peer = shmem.my_pe, 1 - shmem.my_pe
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = shmem.malloc(n * cfg.window, np.float32)
        sig = shmem.malloc(2, np.uint64)
        seq = {"it": 0}

        def one_round():
            seq["it"] += 1
            it = seq["it"]
            if me == 0:
                for w in range(cfg.window - 1):
                    shmem.put_on_stream(data.offset_by(w * n, n), data.offset_by(w * n, n),
                                        n, peer, stream)
                last = (cfg.window - 1) * n
                shmem.put_signal_on_stream(data.offset_by(last, n), data.offset_by(last, n),
                                           n, sig.offset_by(0, 1), it, peer, stream)
                shmem.signal_wait_until_on_stream(sig.offset_by(1, 1), "ge", it, stream)
            else:
                shmem.signal_wait_until_on_stream(sig.offset_by(0, 1), "ge", it, stream)
                shmem.put_signal_on_stream(data.offset_by(0, 1), data.offset_by(0, 1), 0,
                                           sig.offset_by(1, 1), it, peer, stream)

        out[nbytes] = _measure_bw(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        shmem.barrier_all()
        shmem.free(sig)
        shmem.free(data)
    return out if ctx.rank == 0 else None


@device_kernel(name="osu_bw_dev")
def _bw_dev_kernel(ctx, data, sig, n, window, rounds, me, peer, out_times) -> None:
    shmem = ctx.shmem
    engine = shmem.engine
    t0 = engine.now
    for it in range(1, rounds + 1):
        if me == 0:
            for w in range(window):
                shmem.put_nbi(data.offset_by(w * n, n), data.offset_by(w * n, n), n, peer)
            shmem.quiet()
            shmem.put_signal_nbi(data.offset_by(0, 1), data.offset_by(0, 1), 0,
                                 sig.offset_by(0, 1), it, peer)
            shmem.signal_wait_until(sig.offset_by(1, 1), "ge", it)
        else:
            shmem.signal_wait_until(sig.offset_by(0, 1), "ge", it)
            shmem.put_signal_nbi(data.offset_by(0, 1), data.offset_by(0, 1), 0,
                                 sig.offset_by(1, 1), it, peer)
    out_times.append(engine.now - t0)


def bandwidth_gpushmem_device_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUSHMEM device-API bandwidth (resident kernel)."""
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    device = ctx.require_device()
    stream = device.create_stream()
    me, peer = shmem.my_pe, 1 - shmem.my_pe
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = shmem.malloc(n * cfg.window, np.float32)
        sig = shmem.malloc(2, np.uint64)
        iters, warmup = cfg.iters_for(nbytes)

        def reset_signals():
            shmem.barrier_all()
            sig.write(np.zeros(2, np.uint64))
            shmem.barrier_all()

        samples = []
        for _ in range(cfg.repeats):
            times = []
            shmem.collective_launch(_bw_dev_kernel, 1, 128,
                                    (data, sig, n, cfg.window, warmup, me, peer, []), stream)
            stream.synchronize()
            reset_signals()
            shmem.collective_launch(_bw_dev_kernel, 1, 128,
                                    (data, sig, n, cfg.window, iters, me, peer, times), stream)
            stream.synchronize()
            samples.append(cfg.window * nbytes * iters / times[0])
            reset_signals()
        out[nbytes] = paper_mean(samples)
        shmem.free(sig)
        shmem.free(data)
    return out if ctx.rank == 0 else None


def _bandwidth_uniconn_host(ctx: RankContext, cfg: OsuConfig, backend: str) -> Dict[int, float]:
    env = Environment(ctx, backend=backend)
    env.set_device(env.node_rank())
    comm = Communicator(env)
    stream = env.device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode="PureHost")
    me, peer = comm.global_rank(), 1 - comm.global_rank()
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = Memory.alloc(env, n * cfg.window, dtype=np.float32)
        rbuf = Memory.alloc(env, n * cfg.window, dtype=np.float32)
        sig = Memory.alloc(env, 2, dtype=np.uint64) if coord.uses_signals else None
        seq = {"it": 0}

        def one_round():
            seq["it"] += 1
            it = seq["it"]
            base = it * cfg.window
            s0 = sig.offset_by(0, 1) if sig is not None else None
            s1 = sig.offset_by(1, 1) if sig is not None else None
            if me == 0:
                coord.comm_start()
                for w in range(cfg.window):
                    coord.post(data.offset_by(w * n, n), rbuf.offset_by(w * n, n), n,
                               s0, base + w, peer, comm)
                coord.comm_end()
                coord.acknowledge(rbuf.offset_by(0, 1), 1, s1, it, peer, comm)
            else:
                coord.comm_start()
                for w in range(cfg.window):
                    coord.acknowledge(rbuf.offset_by(w * n, n), n, s0, base + w, peer, comm)
                coord.comm_end()
                coord.post(data.offset_by(0, 1), rbuf.offset_by(0, 1), 1, s1, it, peer, comm)

        out[nbytes] = _measure_bw(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        comm.barrier(stream=stream)
        stream.synchronize()
        if sig is not None:
            Memory.free(env, sig)
        Memory.free(env, rbuf)
        Memory.free(env, data)
    env.close()
    return out if ctx.rank == 0 else None


@device_kernel(name="osu_bw_uniconn_dev")
def _bw_uniconn_dev_kernel(ctx, data, rbuf, sig, n, window, rounds, comm_d, out_times) -> None:
    u = ctx.uniconn
    engine = u.engine
    me = comm_d.rank
    peer = 1 - me
    t0 = engine.now
    for it in range(1, rounds + 1):
        if me == 0:
            for w in range(window):
                u.post(data.offset_by(w * n, n), rbuf.offset_by(w * n, n), n,
                       None, 0, peer, comm_d)
            u.quiet()
            u.post(data.offset_by(0, 1), rbuf.offset_by(0, 1), 0,
                   sig.offset_by(0, 1), it, peer, comm_d)
            u.acknowledge(rbuf.offset_by(0, 1), 0, sig.offset_by(1, 1), it, peer, comm_d)
        else:
            u.acknowledge(rbuf.offset_by(0, 1), 0, sig.offset_by(0, 1), it, peer, comm_d)
            u.post(data.offset_by(0, 1), rbuf.offset_by(0, 1), 0,
                   sig.offset_by(1, 1), it, peer, comm_d)
    out_times.append(engine.now - t0)


def _bandwidth_uniconn_device(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    env = Environment(ctx, backend="gpushmem")
    env.set_device(env.node_rank())
    comm = Communicator(env)
    stream = env.device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode="PureDevice")
    comm_d = comm.to_device()
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = Memory.alloc(env, n * cfg.window, dtype=np.float32)
        rbuf = Memory.alloc(env, n * cfg.window, dtype=np.float32)
        sig = Memory.alloc(env, 2, dtype=np.uint64)
        iters, warmup = cfg.iters_for(nbytes)

        def reset_signals():
            comm.barrier()
            sig.write(np.zeros(2, np.uint64))
            comm.barrier()

        samples = []
        for _ in range(cfg.repeats):
            times = []
            coord.bind_kernel(LaunchMode.PureDevice, _bw_uniconn_dev_kernel, 1, 128,
                              args=(data, rbuf, sig, n, cfg.window, warmup, comm_d, []))
            coord.launch_kernel()
            stream.synchronize()
            reset_signals()
            coord.bind_kernel(LaunchMode.PureDevice, _bw_uniconn_dev_kernel, 1, 128,
                              args=(data, rbuf, sig, n, cfg.window, iters, comm_d, times))
            coord.launch_kernel()
            stream.synchronize()
            samples.append(cfg.window * nbytes * iters / times[0])
            reset_signals()
        out[nbytes] = paper_mean(samples)
        Memory.free(env, sig)
        Memory.free(env, rbuf)
        Memory.free(env, data)
    env.close()
    return out if ctx.rank == 0 else None


BANDWIDTH_VARIANTS = {
    "mpi-native": bandwidth_mpi_native,
    "gpuccl-native": bandwidth_gpuccl_native,
    "gpushmem-host-native": bandwidth_gpushmem_host_native,
    "gpushmem-device-native": bandwidth_gpushmem_device_native,
    "uniconn:mpi": lambda c, cfg: _bandwidth_uniconn_host(c, cfg, "mpi"),
    "uniconn:gpuccl": lambda c, cfg: _bandwidth_uniconn_host(c, cfg, "gpuccl"),
    "uniconn:gpushmem": lambda c, cfg: _bandwidth_uniconn_host(c, cfg, "gpushmem"),
    "uniconn:gpushmem-device": _bandwidth_uniconn_device,
    # One-sided MPI (paper Section V-A future work).
    "uniconn:mpi-rma": lambda c, cfg: _bandwidth_uniconn_host(c, cfg, "mpi-rma"),
}


def run_bandwidth(variant: str, cfg: OsuConfig = None, machine: str = "perlmutter",
                  inter_node: bool = False) -> Dict[int, float]:
    """Run one bandwidth variant on 2 GPUs; returns {bytes: bytes/s}."""
    from ...launcher import launch

    cfg = cfg or OsuConfig()
    try:
        fn = BANDWIDTH_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown bandwidth variant {variant!r}; known: {sorted(BANDWIDTH_VARIANTS)}"
        ) from None
    kwargs = dict(machine=machine)
    if inter_node:
        kwargs.update(n_nodes=2, placement="spread")
    results = launch(fn, 2, args=(cfg,), **kwargs)
    return results[0]
