"""OSU-style latency (ping-pong) benchmark, native and Uniconn variants.

Two ranks; rank 0 sends ``n`` bytes, rank 1 returns them; the one-way
latency is half the averaged round trip. Host variants drive the exchange
from the CPU (stream-ordered where the library supports it); the device
variants run the *entire* ping-pong loop inside one resident kernel, which
is what makes device-initiated small-message latency so low intra-node
(paper Fig. 2/3).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...backends import gpuccl as _ccl
from ...backends.gpuccl import GpucclComm, get_unique_id
from ...backends.gpushmem import ShmemContext
from ...backends.mpi import MpiContext
from ...core import Communicator, Coordinator, Environment, LaunchMode, Memory
from ...gpu.kernel import device_kernel
from ...launcher import RankContext
from .config import OsuConfig, paper_mean

__all__ = ["LATENCY_VARIANTS", "run_latency"]


def _count(nbytes: int) -> int:
    return max(1, nbytes // 4)  # float32 elements


def _measure(engine, cfg: OsuConfig, nbytes: int, one_round, sync=None) -> float:
    """Run warmup + timed rounds, repeated per the paper's methodology."""
    iters, warmup = cfg.iters_for(nbytes)
    samples = []
    for _ in range(cfg.repeats):
        for it in range(warmup):
            one_round()
        if sync:
            sync()
        t0 = engine.now
        for it in range(iters):
            one_round()
        if sync:
            sync()
        samples.append((engine.now - t0) / iters / 2.0)  # one-way
    return paper_mean(samples)


# --------------------------------------------------------------------- #
# Native variants.
# --------------------------------------------------------------------- #


def latency_mpi_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native MPI ping-pong latency."""
    ctx.set_device(ctx.node_rank)
    mpi = MpiContext(ctx)
    comm = mpi.comm_world
    device = ctx.require_device()
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        buf = device.malloc(n, np.float32)
        peer = 1 - comm.rank

        def one_round():
            if comm.rank == 0:
                comm.send(buf, n, peer)
                comm.recv(buf, n, peer)
            else:
                comm.recv(buf, n, peer)
                comm.send(buf, n, peer)

        out[nbytes] = _measure(ctx.engine, cfg, nbytes, one_round)
        device.free(buf)
    mpi.finalize()
    return out if ctx.rank == 0 else None


def latency_gpuccl_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUCCL ping-pong latency (stream-ordered)."""
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
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        buf = device.malloc(n, np.float32)
        peer = 1 - comm.rank

        def one_round():
            if comm.rank == 0:
                comm.send(buf, n, peer, stream)
                comm.recv(buf, n, peer, stream)
            else:
                comm.recv(buf, n, peer, stream)
                comm.send(buf, n, peer, stream)

        out[nbytes] = _measure(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        device.free(buf)
    mpi.finalize()
    return out if ctx.rank == 0 else None


def latency_gpushmem_host_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUSHMEM host-API ping-pong latency."""
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    device = ctx.require_device()
    stream = device.create_stream()
    me, peer = shmem.my_pe, 1 - shmem.my_pe
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = shmem.malloc(n, np.float32)
        sig = shmem.malloc(2, np.uint64)
        seq = {"it": 0}

        def one_round():
            seq["it"] += 1
            it = seq["it"]
            if me == 0:
                shmem.put_signal_on_stream(data, data, n, sig.offset_by(0, 1), it, peer, stream)
                shmem.signal_wait_until_on_stream(sig.offset_by(1, 1), "ge", it, stream)
            else:
                shmem.signal_wait_until_on_stream(sig.offset_by(0, 1), "ge", it, stream)
                shmem.put_signal_on_stream(data, data, n, sig.offset_by(1, 1), it, peer, stream)

        out[nbytes] = _measure(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        shmem.barrier_all()
        shmem.free(sig)
        shmem.free(data)
    return out if ctx.rank == 0 else None


@device_kernel(name="osu_lat_dev")
def _latency_dev_kernel(ctx, data, sig, n, rounds, me, peer, out_times) -> None:
    shmem = ctx.shmem
    engine = shmem.engine
    t0 = engine.now
    for it in range(1, rounds + 1):
        if me == 0:
            shmem.put_signal_nbi(data, data, n, sig.offset_by(0, 1), it, peer)
            shmem.signal_wait_until(sig.offset_by(1, 1), "ge", it)
        else:
            shmem.signal_wait_until(sig.offset_by(0, 1), "ge", it)
            shmem.put_signal_nbi(data, data, n, sig.offset_by(1, 1), it, peer)
    out_times.append(engine.now - t0)


def latency_gpushmem_device_native(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    """Native GPUSHMEM device-API latency (loop inside one kernel)."""
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    device = ctx.require_device()
    stream = device.create_stream()
    me, peer = shmem.my_pe, 1 - shmem.my_pe
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = shmem.malloc(n, np.float32)
        sig = shmem.malloc(2, np.uint64)
        iters, warmup = cfg.iters_for(nbytes)
        samples = []
        def reset_signals():
            # Each kernel counts rounds from 1 against persistent signal
            # words, so they are zeroed (with fencing barriers) per launch.
            shmem.barrier_all()
            sig.write(np.zeros(2, np.uint64))
            shmem.barrier_all()

        for _ in range(cfg.repeats):
            times = []
            # Warmup rounds, then timed rounds, each inside ONE resident kernel.
            shmem.collective_launch(_latency_dev_kernel, 1, 128,
                                    (data, sig, n, warmup, me, peer, []), stream)
            stream.synchronize()
            reset_signals()
            shmem.collective_launch(_latency_dev_kernel, 1, 128,
                                    (data, sig, n, iters, me, peer, times), stream)
            stream.synchronize()
            samples.append(times[0] / iters / 2.0)
            reset_signals()
        out[nbytes] = paper_mean(samples)
        shmem.free(sig)
        shmem.free(data)
    return out if ctx.rank == 0 else None


# --------------------------------------------------------------------- #
# Uniconn variants (one code path; backend/mode are parameters).
# --------------------------------------------------------------------- #


def _latency_uniconn_host(ctx: RankContext, cfg: OsuConfig, backend: str) -> Dict[int, float]:
    env = Environment(ctx, backend=backend)
    env.set_device(env.node_rank())
    comm = Communicator(env)
    stream = env.device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode="PureHost")
    me, peer = comm.global_rank(), 1 - comm.global_rank()
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = Memory.alloc(env, n, dtype=np.float32)
        rbuf = Memory.alloc(env, n, dtype=np.float32)
        sig = Memory.alloc(env, 2, dtype=np.uint64) if coord.uses_signals else None
        seq = {"it": 0}

        def one_round():
            seq["it"] += 1
            it = seq["it"]
            s0 = sig.offset_by(0, 1) if sig is not None else None
            s1 = sig.offset_by(1, 1) if sig is not None else None
            if me == 0:
                coord.post(data, rbuf, n, s0, it, peer, comm)
                coord.acknowledge(rbuf, n, s1, it, peer, comm)
            else:
                coord.acknowledge(rbuf, n, s0, it, peer, comm)
                coord.post(data, rbuf, n, s1, it, peer, comm)

        out[nbytes] = _measure(ctx.engine, cfg, nbytes, one_round, sync=stream.synchronize)
        comm.barrier(stream=stream)
        stream.synchronize()
        if sig is not None:
            Memory.free(env, sig)
        Memory.free(env, rbuf)
        Memory.free(env, data)
    env.close()
    return out if ctx.rank == 0 else None


@device_kernel(name="osu_lat_uniconn_dev")
def _latency_uniconn_dev_kernel(ctx, data, rbuf, sig, n, rounds, comm_d, out_times) -> None:
    u = ctx.uniconn
    engine = u.engine
    me = comm_d.rank
    peer = 1 - me
    t0 = engine.now
    for it in range(1, rounds + 1):
        if me == 0:
            u.post(data, rbuf, n, sig.offset_by(0, 1), it, peer, comm_d)
            u.acknowledge(rbuf, n, sig.offset_by(1, 1), it, peer, comm_d)
        else:
            u.acknowledge(rbuf, n, sig.offset_by(0, 1), it, peer, comm_d)
            u.post(data, rbuf, n, sig.offset_by(1, 1), it, peer, comm_d)
    out_times.append(engine.now - t0)


def _latency_uniconn_device(ctx: RankContext, cfg: OsuConfig) -> Dict[int, float]:
    env = Environment(ctx, backend="gpushmem")
    env.set_device(env.node_rank())
    comm = Communicator(env)
    stream = env.device.create_stream()
    coord = Coordinator(env, stream=stream, launch_mode="PureDevice")
    comm_d = comm.to_device()
    out = {}
    for nbytes in cfg.sizes:
        n = _count(nbytes)
        data = Memory.alloc(env, n, dtype=np.float32)
        rbuf = Memory.alloc(env, n, dtype=np.float32)
        sig = Memory.alloc(env, 2, dtype=np.uint64)
        iters, warmup = cfg.iters_for(nbytes)
        samples = []
        def reset_signals():
            comm.barrier()
            sig.write(np.zeros(2, np.uint64))
            comm.barrier()

        for _ in range(cfg.repeats):
            times = []
            coord.bind_kernel(LaunchMode.PureDevice, _latency_uniconn_dev_kernel, 1, 128,
                              args=(data, rbuf, sig, n, warmup, comm_d, []))
            coord.launch_kernel()
            stream.synchronize()
            reset_signals()
            coord.bind_kernel(LaunchMode.PureDevice, _latency_uniconn_dev_kernel, 1, 128,
                              args=(data, rbuf, sig, n, iters, comm_d, times))
            coord.launch_kernel()
            stream.synchronize()
            samples.append(times[0] / iters / 2.0)
            reset_signals()
        out[nbytes] = paper_mean(samples)
        Memory.free(env, sig)
        Memory.free(env, rbuf)
        Memory.free(env, data)
    env.close()
    return out if ctx.rank == 0 else None


LATENCY_VARIANTS = {
    "mpi-native": latency_mpi_native,
    "gpuccl-native": latency_gpuccl_native,
    "gpushmem-host-native": latency_gpushmem_host_native,
    "gpushmem-device-native": latency_gpushmem_device_native,
    "uniconn:mpi": lambda c, cfg: _latency_uniconn_host(c, cfg, "mpi"),
    "uniconn:gpuccl": lambda c, cfg: _latency_uniconn_host(c, cfg, "gpuccl"),
    "uniconn:gpushmem": lambda c, cfg: _latency_uniconn_host(c, cfg, "gpushmem"),
    "uniconn:gpushmem-device": lambda c, cfg: _latency_uniconn_device(c, cfg),
    # One-sided MPI (paper Section V-A future work).
    "uniconn:mpi-rma": lambda c, cfg: _latency_uniconn_host(c, cfg, "mpi-rma"),
}


def run_latency(variant: str, cfg: OsuConfig = None, machine: str = "perlmutter",
                inter_node: bool = False) -> Dict[int, float]:
    """Run one latency variant on 2 GPUs; returns {bytes: seconds}."""
    from ...launcher import launch

    cfg = cfg or OsuConfig()
    try:
        fn = LATENCY_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown latency variant {variant!r}; known: {sorted(LATENCY_VARIANTS)}"
        ) from None
    kwargs = dict(machine=machine)
    if inter_node:
        kwargs.update(n_nodes=2, placement="spread")
    results = launch(fn, 2, args=(cfg,), **kwargs)
    return results[0]
