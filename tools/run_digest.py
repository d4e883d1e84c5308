"""Byte-identity digest of a pinned run matrix (make digest).

Prints one line per run — name, sha256 of the Chrome trace, sha256 of
``RunReport.to_dict()`` (stats, full metrics dump, fault log, race
reports, collected results) — then one combined hash of those. Every
hashed value is virtual-clocked, so ``trace=``/``report=`` are stable
across processes and hosts; ``tools/digest.golden`` holds them and
``--check`` (``make digest-check``) exits 1 on any difference, which is
how a change proves it preserves behaviour.

Three things a run reports are *host-side* and kept out of ``report=``:
the wall-clock ``replay_host_seconds``, the scheduler counters (``SCHED``)
that virtual time never depends on, and the race sanitizer's own
bookkeeping counts (``stats["sanitizer"]``) that its findings never depend
on — an improvement to either moves those without changing behaviour.
They print as trailing ``sched=switches/inline_resumes/timers_fired/wakeups/
os_threads`` (the last counted here, around the run: the OS threads the
engine started for its ``tasks_spawned`` tasks) and (sanitized runs)
``san=ids/clock_ops/clock_entries_visited/clock_peak/id_reuses`` fields
that the golden and the combined hash ignore.
"""

import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import cg, jacobi  # noqa: E402
from repro.apps.jacobi2d import Jacobi2DConfig, launch_2d  # noqa: E402
from repro.apps.osu import OsuConfig  # noqa: E402
from repro.apps.osu.collectives import _collective_body  # noqa: E402
from repro.apps.osu.bandwidth import BANDWIDTH_VARIANTS  # noqa: E402
from repro.apps.osu.latency import LATENCY_VARIANTS  # noqa: E402
from repro.launcher import launch  # noqa: E402
from repro.sim import Tracer, to_chrome_trace  # noqa: E402

SCHED = ("switches", "inline_resumes", "timers_fired", "wakeups", "events")
SAN = ("ids", "clock_ops", "clock_entries_visited", "clock_peak", "id_reuses")

JACOBI_VARIANTS = ("mpi-native", "gpuccl-native", "gpushmem-host-native",
                   "gpushmem-device-native", "uniconn:mpi", "uniconn:gpuccl",
                   "uniconn:gpushmem")
BACKENDS = ("mpi", "gpuccl", "gpushmem")
INERT = "drop,tag=0,start=1e6,end=2e6;straggler,gpu=0,factor=1"
HARSH_DROPS = "drop,tag=0,start=1e-4,end=6e-4;retry,base=1e-5,max=2"
CRASH = "crash,rank=1,at=1e-4;watchdog,timeout=5e-3"
DEAD_LINK = "down,link=nvlink?1->2?,start=0;watchdog,timeout=5e-3"

STEADY = jacobi.JacobiConfig(nx=96, ny=98, iters=48, warmup=1)
# Halo rows above every preset's eager threshold: rendezvous traffic.
WIDE = jacobi.JacobiConfig(nx=4096, ny=34, iters=24, warmup=1)
SMALL = jacobi.JacobiConfig(nx=32, ny=34, iters=16, warmup=2)
# A 3x2 tile grid on two nodes: every halo face, a ragged tile size.
JACOBI_2D = Jacobi2DConfig(nx=26, ny=22, iters=5, warmup=1)
CG = cg.CgConfig(n=512, nnz_per_row=9, iters=12, seed=3)
CG_WIDE = cg.CgConfig(n=4096, nnz_per_row=9, iters=6, seed=3)
# Fig. 6's regime: each of the 8 ranks' AllGatherv blocks is 128 KiB, so
# every gather moves 1 MiB.
CG_MB = cg.CgConfig(n=131072, nnz_per_row=9, iters=4, seed=3)
SPANS_JACOBI = ("uniconn:mpi", "uniconn:gpuccl", "uniconn:gpushmem",
                "uniconn:gpushmem:PartialDevice", "uniconn:gpushmem:PureDevice")
OSU = OsuConfig(sizes=(8, 1024, 65536, 1 << 20), iters_small=6, warmup_small=1,
                iters_large=3, warmup_large=1, window=8, repeats=1)
# One message size inside each LL / LL128 / Simple band of a 64-GPU
# perlmutter GPUCCL selection (the band centres of the coll_sweep benchmark).
COLL64_SIZES = {"all_reduce": (1536, 24 << 10, 192 << 10),
                "all_gather": (192, 2 << 10, 24 << 10)}


def _jacobi(variant, cfg, ranks, **options):
    return lambda tracer: jacobi.launch_variant(
        variant, cfg, ranks, collect=True, tracer=tracer, **options)


def _cg(variant, cfg, ranks, **options):
    problem = cg.make_problem(cfg)
    return lambda tracer: cg.launch_variant(
        variant, cfg, ranks, problem=problem, collect=True, tracer=tracer, **options)


def _osu(table, variant, inter=False):
    where = dict(n_nodes=2, placement="spread") if inter else {}

    return lambda tracer: launch(table[variant], 2, args=(OSU,), tracer=tracer, **where)


def _coll64(kind):
    """A 64-rank GPUCCL OSU collective sweep whose every size is selected
    by ``coll="auto"``."""
    cfg = OsuConfig(sizes=COLL64_SIZES[kind], iters_small=1, warmup_small=1,
                    iters_large=1, warmup_large=1, repeats=1)
    return lambda tracer: launch(_collective_body, 64, args=(cfg, "gpuccl", kind),
                                 tracer=tracer, coll="auto")


def _dead_link(backend):
    """A fixed-ring all_reduce that must reschedule around a downed link."""
    from repro import Communicator, Coordinator, Environment
    from repro.core import IN_PLACE, Memory

    def body(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        coord = Coordinator(env, stream=env.device.create_stream())
        buf = Memory.alloc(env, 1024)
        buf.write(np.full(1024, float(comm.global_rank() + 1)))
        for _ in range(3):
            coord.all_reduce(IN_PLACE, buf, 1024, "sum", comm)
        coord.stream.synchronize()
        return buf.read().copy()

    return lambda tracer: launch(body, 4, tracer=tracer, coll="ring",
                                 fault_plan=DEAD_LINK)


def surface(backend):
    """Rank body calling every public Coordinator method once: each
    collective in its plain, IN_PLACE and vectorised forms, one grouped
    ring and one ungrouped pairwise post/acknowledge. Returns the payload
    every step left behind (the same on every backend;
    tests/core/test_coordinator.py runs this too)."""
    from repro import Communicator, Coordinator, Environment
    from repro.core import IN_PLACE, Memory

    def body(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        coord = Coordinator(env, stream=env.device.create_stream())
        p, me = comm.global_size(), comm.global_rank()
        n = 4
        a, b = Memory.alloc(env, n * p), Memory.alloc(env, n * p)
        sig = Memory.alloc(env, 2, dtype=np.uint64) if coord.uses_signals else None
        counts = [1 + r % 3 for r in range(p)]
        displs = [sum(counts[:r]) for r in range(p)]
        seen = []

        def step(call, *args, keep=b):
            a.write(np.arange(n * p, dtype=np.float32) + 100.0 * (me + 1))
            comm.barrier(stream=coord.stream)
            call(*args, comm)
            coord.stream.synchronize()
            comm.barrier(stream=coord.stream)
            seen.append(keep.read().copy())

        step(coord.all_reduce, a, b, n, "sum")
        step(coord.all_reduce, IN_PLACE, b, n, "max")
        step(coord.reduce, a, b, n, "sum", 1)
        step(coord.reduce, IN_PLACE, b, n, "min", 0)
        step(coord.broadcast, b, n, p - 1)
        step(coord.all_gather, a, b, n)
        step(coord.reduce_scatter, b, a, n, "sum", keep=a)
        step(coord.reduce_scatter, IN_PLACE, b, n // p or 1, "sum")
        step(coord.all_gather_v, a, counts[me], b, counts, displs)
        step(coord.all_gather_v, b.offset_by(displs[me], counts[me]), counts[me],
             b, counts, displs)
        step(coord.gather, a, b, n, 0)
        step(coord.gather_v, IN_PLACE, counts[me], b, counts, displs, p - 1)
        step(coord.scatter, b, a, n, 0, keep=a)
        step(coord.scatter_v, b, counts, displs, a, counts[me], 1, keep=a)
        step(coord.all_to_all, a, b, n)

        def ring(_comm):
            coord.comm_start()
            coord.post(a, b, n, sig, 1, (me + 1) % p, comm)
            coord.acknowledge(b, n, sig, 1, (me - 1) % p, comm)
            coord.comm_end()

        def pairs(_comm):
            # Ungrouped: GPUCCL sends occupy the stream until matched, so
            # the exchange is one-directional inside disjoint pairs.
            slot = sig.offset_by(1, 1) if sig is not None else None
            if me % 2 == 0 and me + 1 < p:
                coord.post(a, b, n, slot, 1, me + 1, comm, tag=3)
            elif me % 2:
                coord.acknowledge(b, n, slot, 1, me - 1, comm, tag=3)

        step(ring)
        step(pairs)
        env.close()
        return seen

    return body


def _surface(backend, ranks=4, **options):
    return lambda tracer: launch(surface(backend), ranks, tracer=tracer, **options)


def shmem_api(side):
    """Rank body (4 ranks over 2 nodes, ``placement="spread"``) calling each
    blocking GPUSHMEM API once, from the host (``side="host"``) or from a
    device kernel (``"device"``), then a Uniconn ``Communicator.split`` and
    a barrier on the sub-communicator. The next rank is on the other node,
    the mate on the same one. Returns the clock after each phase and the
    receive window."""
    from repro import Communicator, Environment
    from repro.gpu import device_kernel
    from repro.hardware import KernelCost

    @device_kernel(name="shmem_api")
    def calls(ctx, src, got, sig, right, mate):
        shmem, n = ctx.shmem, src.count
        # A blocking put completes when the outstanding count is back where
        # it was at its call: the first one returns with the slower put_nbi
        # still in flight; that one lands during the compute charge, so the
        # second waits for itself alone.
        shmem.put_nbi(got.offset_by(0, n), src, n, right)
        shmem.put(got.offset_by(n, n), src, n, mate)
        ctx.compute(KernelCost(bytes_moved=float(1 << 26)))
        shmem.put(got.offset_by(2 * n, n), src, n, mate)
        shmem.fence()
        shmem.get(got.offset_by(3 * n, n), src, n, mate)
        shmem.put_signal_nbi(got.offset_by(4 * n, n), src, n, sig, 1, right)
        shmem.quiet()
        shmem.signal_wait_until(sig, "ge", 1)
        ctx.charge(KernelCost(flops=1e6))

    def body(ctx):
        env = Environment(ctx, backend="gpushmem")
        env.set_device(env.node_rank())
        comm, shmem = Communicator(env), env.shmem
        p, me = comm.global_size(), comm.global_rank()
        right, mate, n = (me + 1) % p, me ^ 2, 8
        src, got = shmem.malloc(n), shmem.malloc(5 * n)
        sig = shmem.malloc(1, np.uint64)
        src.write(np.arange(n, dtype=np.float32) + 10.0 * me)
        shmem.barrier_all()
        clock = [env.engine.now]
        if side == "host":
            shmem.put(got.offset_by(0, n), src, n, right)
            shmem.put_signal(got.offset_by(n, n), src, n, sig, 1, right)
            shmem.fence()
            shmem.get(got.offset_by(2 * n, n), src, n, mate)
            shmem.quiet()
            shmem.signal_wait_until(sig, "ge", 1)
        else:
            stream = env.device.create_stream()
            shmem.collective_launch(calls, 1, 32, args=(src, got, sig, right, mate),
                                    stream=stream)
            stream.synchronize()
        clock.append(env.engine.now)
        shmem.barrier_all()
        sub = comm.split(me % 2)
        sub.barrier()
        clock.append(env.engine.now)
        out = got.read().copy()
        env.close()
        return clock, out

    return body


def _shmem_api(side, **options):
    return lambda tracer: launch(shmem_api(side), 4, n_nodes=2, placement="spread",
                                 tracer=tracer, **options)


def split_p2p(backend):
    """Rank body (4 ranks over 2 nodes, ``placement="spread"``): split the
    world by parity with a key that reverses rank order, so a
    sub-communicator rank is never its world rank; a grouped
    post/acknowledge ring and an all_reduce on the sub-communicator, then
    the same ring on the world. Returns what each phase received."""
    from repro import Communicator, Coordinator, Environment
    from repro.core import Memory

    def body(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        world = Communicator(env)
        coord = Coordinator(env, stream=env.device.create_stream())
        me, n = world.global_rank(), 4
        a, b, c = (Memory.alloc(env, n) for _ in range(3))
        sig = Memory.alloc(env, 2, dtype=np.uint64) if coord.uses_signals else None
        a.write(np.arange(n, dtype=np.float32) + 10.0 * (me + 1))
        sub = world.split(me % 2, key=-me)
        seen = []

        def ring(comm, slot):
            p, r = comm.global_size(), comm.global_rank()
            if sig is not None:
                slot = sig.offset_by(slot, 1)
            coord.comm_start()
            coord.post(a, b, n, slot, 1, (r + 1) % p, comm)
            coord.acknowledge(b, n, slot, 1, (r - 1) % p, comm)
            coord.comm_end()
            coord.stream.synchronize()
            world.barrier(stream=coord.stream)
            seen.append(b.read().copy())

        ring(sub, 0)
        coord.all_reduce(a, c, n, "sum", sub)
        coord.stream.synchronize()
        seen.append(c.read().copy())
        ring(world, 1)
        env.close()
        return seen

    return lambda tracer: launch(body, 4, n_nodes=2, placement="spread", tracer=tracer)


def matrix():
    """(name, run(tracer) -> RunReport) for every pinned run, in order."""
    for variant in JACOBI_VARIANTS:
        for capture in ("off", "regions"):
            yield (f"jacobi16/{variant}/capture={capture}",
                   _jacobi(variant, STEADY, 16, capture=capture))
    for mode in ("PartialDevice", "PureDevice"):
        yield (f"jacobi16/uniconn:gpushmem:{mode}",
               _jacobi(f"uniconn:gpushmem:{mode}", STEADY, 16))
    yield "jacobi16/uniconn:mpi-rma", _jacobi("uniconn:mpi-rma", STEADY, 16)
    for backend in ("mpi", "gpushmem"):
        yield (f"jacobi2d6/uniconn:{backend}",
               lambda tracer, b=backend: launch_2d(JACOBI_2D, 6, backend=b, n_nodes=2,
                                                   collect=True, tracer=tracer))
    for variant in ("mpi-native", "uniconn:mpi"):
        for capture in ("off", "regions"):
            yield (f"jacobi8-rdv/{variant}/capture={capture}",
                   _jacobi(variant, WIDE, 8, capture=capture))
        yield (f"jacobi8-rdv/{variant}/inert-plan",
               _jacobi(variant, WIDE, 8, fault_plan=INERT))
    for backend in BACKENDS:
        for coll in ("off", "auto", "ring+LL/2"):
            yield (f"cg8/uniconn:{backend}/coll={coll}",
                   _cg(f"uniconn:{backend}", CG, 8, coll=coll))
    yield "cg4-rdv/uniconn:mpi", _cg("uniconn:mpi", CG_WIDE, 4)
    yield "cg4-rdv/uniconn:mpi/inert-plan", _cg("uniconn:mpi", CG_WIDE, 4,
                                                 fault_plan=INERT)
    yield "cg8-mb/gpuccl-native", _cg("gpuccl-native", CG_MB, 8)
    for variant in LATENCY_VARIANTS:
        yield f"osu-latency/{variant}", _osu(LATENCY_VARIANTS, variant)
    for variant in BANDWIDTH_VARIANTS:
        yield f"osu-bandwidth/{variant}", _osu(BANDWIDTH_VARIANTS, variant)
    for variant in ("mpi-native", "uniconn:gpuccl", "uniconn:gpushmem"):
        yield (f"osu-latency-inter/{variant}",
               _osu(LATENCY_VARIANTS, variant, inter=True))
    for kind in COLL64_SIZES:
        yield f"osu-coll64/gpuccl:{kind}/coll=auto", _coll64(kind)
    for backend in BACKENDS:
        yield (f"sanitize/jacobi8/uniconn:{backend}",
               _jacobi(f"uniconn:{backend}", SMALL, 8, sanitize="race"))
        yield (f"sanitize/cg4/uniconn:{backend}",
               _cg(f"uniconn:{backend}", CG, 4, sanitize="race"))
    yield ("sanitize/jacobi8/uniconn:gpushmem:PureDevice",
           _jacobi("uniconn:gpushmem:PureDevice", SMALL, 8, sanitize="race"))
    yield ("fault/harsh-drops/elastic:mpi",
           _jacobi("elastic:mpi", SMALL, 4, fault_plan=HARSH_DROPS, fault_seed=1))
    yield ("fault/harsh-drops/elastic:mpi/nx=4096",
           _jacobi("elastic:mpi", WIDE, 4, fault_plan=HARSH_DROPS, fault_seed=1))
    for backend in BACKENDS:
        yield (f"fault/crash/jacobi/elastic:{backend}",
               _jacobi(f"elastic:{backend}", SMALL, 4, fault_plan=CRASH, fault_seed=5))
        yield (f"fault/crash/cg/elastic:{backend}",
               _cg(f"elastic:{backend}", CG, 4, fault_plan=CRASH, fault_seed=5))
        yield f"fault/dead-link/all_reduce/uniconn:{backend}", _dead_link(backend)
    # The Coordinator under span tracing, and its whole public surface.
    for variant in SPANS_JACOBI:
        yield f"spans/jacobi8/{variant}", _jacobi(variant, SMALL, 8, obs="spans")
    for backend in BACKENDS:
        yield (f"spans/cg8/uniconn:{backend}",
               _cg(f"uniconn:{backend}", CG, 8, obs="spans"))
    for backend in BACKENDS:
        for obs in ("metrics", "spans"):
            yield f"surface4/uniconn:{backend}/obs={obs}", _surface(backend, obs=obs)
    # Two nodes and ragged counts: non-power-of-two binomials, inter-node staging.
    yield "surface6/uniconn:mpi/obs=metrics", _surface("mpi", 6, obs="metrics")
    # What `repro report --sanitize --trace-out` runs: both instruments at once.
    for backend in BACKENDS:
        yield (f"checked/jacobi8/uniconn:{backend}",
               _jacobi(f"uniconn:{backend}", SMALL, 8, sanitize="race", obs="spans"))
    # The blocking GPUSHMEM calls and Communicator.split, which no app runs.
    for side in ("host", "device"):
        yield f"shmem-api4/uniconn:gpushmem:{side}", _shmem_api(side)
    # Point-to-point where communicator ranks are not world ranks.
    for backend in BACKENDS:
        yield f"split-p2p4/uniconn:{backend}", split_p2p(backend)


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _os_threads_during(run, tracer):
    """``run(tracer)`` and how many OS threads were started meanwhile."""
    started = 0
    start = threading.Thread.start

    def counting_start(thread):
        nonlocal started
        started += 1
        start(thread)

    threading.Thread.start = counting_start
    try:
        return run(tracer), started
    finally:
        threading.Thread.start = start


def digest(run):
    tracer = Tracer()
    report, os_threads = _os_threads_during(run, tracer)
    doc = report.to_dict()
    doc["stats"].get("capture", {}).pop("replay_host_seconds", None)
    unhashed = "sched=" + "/".join(
        [str(doc["stats"].pop(k)) for k in SCHED[:-1]] + [str(os_threads)])
    doc["stats"].pop("events")  # the sum of three of the above
    san = doc["stats"].pop("sanitizer", None)
    if san is not None:
        unhashed += " san=" + "/".join(str(san[k]) for k in SAN)
    return _sha({"traceEvents": to_chrome_trace(tracer)}), _sha(doc), unhashed


def main(argv) -> int:
    """No arguments: print the digest. ``--check FILE``: also compare the
    ``trace=``/``report=`` lines with FILE and exit 1 if any differ."""
    golden = None
    if argv:
        if len(argv) != 2 or argv[0] != "--check":
            print("usage: run_digest.py [--check GOLDEN]", file=sys.stderr)
            return 2
        golden = Path(argv[1]).read_text().splitlines()
    combined = hashlib.sha256()
    lines = []
    for name, run in matrix():
        trace, report, unhashed = digest(run)
        line = f"{name} trace={trace} report={report}"
        print(f"{line} {unhashed}", flush=True)
        combined.update(line.encode() + b"\n")
        lines.append(line)
    lines.append(f"combined[{len(lines)} runs] {combined.hexdigest()}")
    print(lines[-1])
    if golden is None or golden == lines:
        return 0
    want = dict(l.split(" ", 1) for l in golden)
    got = dict(l.split(" ", 1) for l in lines)
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            print(f"DIFFERS {name}\n  golden {want.get(name)}\n  now    {got.get(name)}",
                  file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
