"""Ablations for the design choices DESIGN.md calls out.

Not figures from the paper, but quantified justifications of its mechanisms:

- operation grouping (CommStart/CommEnd -> ncclGroupStart/End) amortizes
  kernel-launch overhead across messages;
- MPI's eager/rendezvous threshold creates the small-message latency step;
- device-side ThreadGroup granularity trades bandwidth for flexibility;
- launch modes shift where time is spent (host loop vs resident kernel).
"""

import dataclasses

from benchmarks._common import jacobi_dims
from repro.apps.jacobi import JacobiConfig, launch_variant
from repro.apps.osu import OsuConfig, run_latency
from repro.bench import banner, fmt_size, fmt_us, save_json, series_table, shape_check
from repro.hardware import perlmutter


def run_grouping_ablation():
    """Grouped vs per-message GPUCCL exchanges over message counts."""
    import numpy as np

    from repro.backends import gpuccl as ccl
    from repro.backends.gpuccl import GpucclComm, get_unique_id
    from repro.launcher import launch

    def body_of(n_msgs, grouped):
        def main(ctx):
            ctx.set_device(ctx.node_rank)
            uid = ctx.job.shared_state("uid", get_unique_id)
            comm = GpucclComm(ctx, uid, 2, ctx.rank)
            stream = ctx.device.create_stream()
            peer = 1 - comm.rank
            buf = ctx.device.malloc(n_msgs, np.float32)
            t0 = ctx.engine.now
            if grouped:
                ccl.group_start()
            for i in range(n_msgs):
                view = buf.offset(i, 1)
                if comm.rank == 0:
                    comm.send(view, 1, peer, stream)
                else:
                    comm.recv(view, 1, peer, stream)
                if not grouped:
                    pass  # each op is its own kernel
            if grouped:
                ccl.group_end()
            stream.synchronize()
            return ctx.engine.now - t0

        return main

    rows = {}
    for n_msgs in (1, 4, 16, 64):
        t_grouped = launch(body_of(n_msgs, True), 2)[0]
        t_single = launch(body_of(n_msgs, False), 2)[0]
        rows[n_msgs] = {"grouped_us": t_grouped * 1e6, "ungrouped_us": t_single * 1e6,
                        "speedup": t_single / t_grouped}
    banner("Ablation: GPUCCL operation grouping (2 GPUs, 4B messages)")
    series_table(list(rows), {
        "grouped(us)": {k: rows[k]["grouped_us"] for k in rows},
        "ungrouped(us)": {k: rows[k]["ungrouped_us"] for k in rows},
        "speedup": {k: rows[k]["speedup"] for k in rows},
    }, row_header="msgs", val_fmt=lambda v: f"{v:.2f}")
    ok = shape_check("grouping speedup grows with message count",
                     rows[64]["speedup"] > rows[4]["speedup"] > 1.5)
    save_json("ablation_grouping", rows)
    assert ok
    return rows


def run_eager_threshold_ablation():
    """The eager->rendezvous step moves with the configured threshold."""
    sizes = (2048, 4096, 8192, 16384, 32768, 65536)
    cfg = OsuConfig(sizes=sizes, iters_small=20, warmup_small=2,
                    iters_large=20, warmup_large=2, repeats=3,
                    small_cutoff=1 << 30)  # same iteration counts everywhere
    results = {}
    for threshold in (4096, 16384, 65536):
        base = perlmutter()
        spec = dataclasses.replace(
            base, mpi=dataclasses.replace(base.mpi, eager_threshold=threshold)
        )
        results[f"eager<={fmt_size(threshold)}"] = run_latency("mpi-native", cfg, machine=spec)
    banner("Ablation: MPI eager/rendezvous threshold (intra-node latency, us)")
    series_table(sizes, results, row_fmt=fmt_size, val_fmt=fmt_us)
    # With a 64KiB threshold, a 32KiB message stays eager and must be faster
    # than under a 4KiB threshold where it pays the rendezvous handshake.
    ok = shape_check(
        "larger eager threshold removes the handshake for mid-size messages",
        results["eager<=64KiB"][32768] < results["eager<=4KiB"][32768],
    )
    save_json("ablation_eager_threshold", {k: {str(s): v for s, v in r.items()}
                                           for k, r in results.items()})
    assert ok
    return results


def run_thread_group_ablation():
    """Device put bandwidth at THREAD/WARP/BLOCK granularity."""
    import numpy as np

    from repro.backends.gpushmem import ShmemContext
    from repro.gpu import device_kernel
    from repro.launcher import launch

    n = 1 << 16

    @device_kernel()
    def putter(ctx, dest, group, out):
        shmem = ctx.shmem
        t0 = shmem.engine.now
        shmem.put(dest, np.zeros(n, np.float32), n, 1, group=group)
        out.append(shmem.engine.now - t0)

    def main_of(group):
        def main(ctx):
            ctx.set_device(ctx.node_rank)
            shmem = ShmemContext(ctx)
            dest = shmem.malloc(n, np.float32)
            out = []
            if shmem.my_pe == 0:
                stream = ctx.device.create_stream()
                shmem.collective_launch(putter, 1, 128, (dest, group, out), stream)
                stream.synchronize()
            shmem.barrier_all()
            return out[0] if out else None

        return main

    rows = {}
    for group in ("block", "warp", "thread"):
        t = launch(main_of(group), 2)[0]
        rows[group] = {"time_us": t * 1e6, "GBps": 4 * n / t / 1e9}
    banner("Ablation: device-side ThreadGroup granularity (256KiB put)")
    for g, r in rows.items():
        print(f"  {g:8s} {r['time_us']:10.2f} us   {r['GBps']:8.2f} GB/s")
    ok = shape_check("BLOCK > WARP > THREAD effective bandwidth",
                     rows["block"]["GBps"] > rows["warp"]["GBps"] > rows["thread"]["GBps"])
    save_json("ablation_thread_group", rows)
    assert ok
    return rows


def run_launch_mode_ablation():
    """Jacobi runtime per launch mode at several GPU counts."""
    nx, ny, iters, warmup = jacobi_dims()
    cfg = JacobiConfig(nx=nx, ny=ny, iters=iters, warmup=warmup)
    rows = {}
    for mode in ("PureHost", "PartialDevice", "PureDevice"):
        rows[mode] = {}
        for gpus in (4, 8, 16):
            res = launch_variant(f"uniconn:gpushmem:{mode}", cfg, gpus)
            rows[mode][gpus] = max(r.total_time for r in res)
    banner("Ablation: launch modes (Jacobi on GPUSHMEM, total seconds)")
    series_table([4, 8, 16], rows, row_header="gpus", val_fmt=lambda v: f"{v * 1e3:.3f}ms")
    ok = shape_check(
        "all modes run and scale; intra-node PureDevice is competitive",
        all(rows[m][16] > 0 for m in rows),
    )
    save_json("ablation_launch_modes", {m: {str(g): t for g, t in r.items()}
                                        for m, r in rows.items()})
    assert ok
    return rows


def run_decomposition_ablation():
    """1D row partitioning (the paper's layout) vs 2D tiles.

    Two regimes, both captured:

    - *latency regime* (small/medium grids): 1D's two messages per rank
      beat 2D's four — each message pays the same launch+latency floor, so
      fewer messages win. Measured with the full solvers.
    - *bandwidth regime* (huge halos): 2D moves 2/sqrt(p) of 1D's bytes per
      rank; projected from the machine's own link model, where the
      checkerboard wins by the volume ratio.
    """
    import math

    from repro.apps.jacobi import JacobiConfig, launch_variant
    from repro.apps.jacobi2d import Jacobi2DConfig, launch_2d
    from repro.hardware import Cluster

    nx = ny = 768
    rows = {}
    for gpus in (4, 16, 64):
        cfg1 = JacobiConfig(nx=nx, ny=ny + 2, iters=8, warmup=1)
        cfg2 = Jacobi2DConfig(nx=nx, ny=ny + 2, iters=8, warmup=1)
        t1 = max(r.total_time for r in launch_variant("uniconn:gpuccl", cfg1, gpus))
        t2 = max(r.total_time for r in launch_2d(cfg2, gpus, backend="gpuccl"))
        rows[gpus] = {"rows_1d_ms": t1 * 1e3, "tiles_2d_ms": t2 * 1e3, "ratio": t1 / t2}
    banner("Ablation: 1D rows vs 2D tiles (Jacobi, GPUCCL backend)")
    series_table(list(rows), {
        "1D rows(ms)": {k: rows[k]["rows_1d_ms"] for k in rows},
        "2D tiles(ms)": {k: rows[k]["tiles_2d_ms"] for k in rows},
        "1D/2D": {k: rows[k]["ratio"] for k in rows},
    }, row_header="gpus", val_fmt=lambda v: f"{v:.3f}")
    ok_latency = shape_check(
        "latency regime: 1D's fewer messages win at this grid size",
        all(rows[g]["ratio"] <= 1.05 for g in rows),
    )

    # Bandwidth-regime projection straight from the link model.
    cluster = Cluster(perlmutter(), 16)
    m = perlmutter()
    p = 64
    huge_nx = 1 << 22  # a row of 16 MiB: halo transfers are bandwidth-bound
    path_inter = cluster.path(0, 4)  # worst-case neighbour: over the NIC
    t_1d = 2 * path_inter.transfer_time(4 * huge_nx)
    side = int(huge_nx / math.sqrt(p))
    t_2d = 4 * path_inter.transfer_time(4 * side)
    print(f"  projected halo time at nx=2^22, p=64: 1D {t_1d * 1e6:.1f}us vs "
          f"2D {t_2d * 1e6:.1f}us ({t_1d / t_2d:.1f}x)")
    ok_bandwidth = shape_check(
        "bandwidth regime: 2D's perimeter halos win by ~sqrt(p)/2",
        t_1d > 2.0 * t_2d,
    )
    rows["projection"] = {"t_1d_us": t_1d * 1e6, "t_2d_us": t_2d * 1e6}
    save_json("ablation_decomposition", {str(k): v for k, v in rows.items()})
    assert ok_latency and ok_bandwidth
    return rows


def run_gpudirect_collectives_ablation():
    """Test Fig. 6's mechanism hypothesis directly: give MPI collectives a
    hypothetical GPUDirect path (no host staging) and watch most of the CG
    gap to GPUCCL disappear."""
    from repro.apps.cg import CgConfig, launch_variant, make_problem

    cfg = CgConfig(n=131072, nnz_per_row=8, iters=6, seed=3)
    problem = make_problem(cfg)
    base = perlmutter()
    direct = dataclasses.replace(
        base, mpi=dataclasses.replace(base.mpi, collective_gpu_direct=True)
    )
    t_staged = max(r.total_time for r in
                   launch_variant("mpi-native", cfg, 8, machine=base, problem=problem))
    t_direct = max(r.total_time for r in
                   launch_variant("mpi-native", cfg, 8, machine=direct, problem=problem))
    t_ccl = max(r.total_time for r in
                launch_variant("gpuccl-native", cfg, 8, machine=base, problem=problem))
    banner("Ablation: MPI collectives with a hypothetical GPUDirect path")
    print(f"  MPI (host-staged collectives)   {t_staged * 1e3:8.3f} ms  <- Fig.6 behaviour")
    print(f"  MPI (GPUDirect collectives)     {t_direct * 1e3:8.3f} ms")
    print(f"  GPUCCL                          {t_ccl * 1e3:8.3f} ms")
    gap_staged = t_staged / t_ccl
    gap_direct = t_direct / t_ccl
    ok = shape_check(
        "removing host staging closes most of the MPI-vs-GPUCCL CG gap",
        gap_direct < 0.6 * gap_staged and t_direct < t_staged,
        f"gap {gap_staged:.2f}x -> {gap_direct:.2f}x",
    )
    save_json("ablation_gpudirect_collectives", {
        "mpi_staged_s": t_staged, "mpi_gpudirect_s": t_direct, "gpuccl_s": t_ccl,
    })
    assert ok
    return t_staged, t_direct, t_ccl


def run_rma_ablation():
    """Two-sided vs one-sided MPI Post/Acknowledge (§V-A future work)."""
    sizes = (8, 1024, 65536, 1 << 20)
    cfg = OsuConfig(sizes=sizes, iters_small=20, warmup_small=2,
                    iters_large=6, warmup_large=1, repeats=3)
    results = {
        "two-sided (send/recv)": run_latency("uniconn:mpi", cfg),
        "one-sided (RMA put+signal)": run_latency("uniconn:mpi-rma", cfg),
    }
    banner("Ablation: MPI two-sided vs one-sided Post/Acknowledge (intra, us)")
    series_table(sizes, results, row_fmt=fmt_size, val_fmt=fmt_us)
    # One-sided skips matching/handshake: it must win for large messages
    # (no rendezvous round trip) and stay in the same ballpark for small.
    ok = shape_check(
        "RMA avoids the rendezvous handshake for large messages",
        results["one-sided (RMA put+signal)"][1 << 20] < results["two-sided (send/recv)"][1 << 20],
    )
    save_json("ablation_mpi_rma", {k: {str(s): v for s, v in r.items()}
                                   for k, r in results.items()})
    assert ok
    return results


def test_ablation_grouping(benchmark):
    benchmark.pedantic(run_grouping_ablation, rounds=1, iterations=1)


def test_ablation_eager_threshold(benchmark):
    benchmark.pedantic(run_eager_threshold_ablation, rounds=1, iterations=1)


def test_ablation_thread_group(benchmark):
    benchmark.pedantic(run_thread_group_ablation, rounds=1, iterations=1)


def test_ablation_launch_modes(benchmark):
    benchmark.pedantic(run_launch_mode_ablation, rounds=1, iterations=1)


def test_ablation_mpi_rma(benchmark):
    benchmark.pedantic(run_rma_ablation, rounds=1, iterations=1)


def test_ablation_decomposition(benchmark):
    benchmark.pedantic(run_decomposition_ablation, rounds=1, iterations=1)


def test_ablation_gpudirect_collectives(benchmark):
    benchmark.pedantic(run_gpudirect_collectives_ablation, rounds=1, iterations=1)


if __name__ == "__main__":
    run_grouping_ablation()
    run_eager_threshold_ablation()
    run_thread_group_ablation()
    run_launch_mode_ablation()
    run_rma_ablation()
    run_decomposition_ablation()
    run_gpudirect_collectives_ablation()
