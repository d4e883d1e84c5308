"""Host cost of the data planes as a noise-free count (make call-census).

Wall-clock host time on a shared box swings by more than a per-message
saving; the number of Python calls a transfer makes does not. This tool
runs each program under cProfile on every thread (the simulator runs its
ranks on carrier threads) and counts the calls into functions defined
under ``src/repro``. Comprehension and generator-expression frames are
left out: Python 3.12 inlines list/dict/set comprehensions, so counting
them would make the same code read differently across versions.

The census programs each run at two round counts; what a program reports
is the *marginal* count — the difference in calls divided by the
difference in transfers — so set-up (contexts, communicators, the
bootstrap rendezvous) does not dilute it:

- ``mpi-pingpong``: two ranks, ``isend``/``irecv``/``waitall`` ping-pong
  (transfers: ``mpi_messages_total``);
- ``gpuccl-ring``: four ranks, a grouped send/recv ring on a stream
  (``gpuccl_messages_total``);
- ``gpushmem-signal``: four PEs, ``put_signal_on_stream`` to the next PE
  plus a signal wait on the stream (``shmem_puts_total``).

``jacobi-live`` is the benchmark's ``jacobi_live`` job list (64 ranks, 11
iterations; ``uniconn:mpi``, ``uniconn:gpuccl``, ``uniconn:gpushmem`` and
``uniconn:gpushmem:PureDevice``) through ``execute_job``; it reports the
pass's total calls and its transfers.

Usage::

    python tools/call_census.py            # print the counts
    python tools/call_census.py --check    # also exit 1 above a bound

Each bound in ``BOUNDS`` is the count when it was last set plus 5 %: a
change that adds per-transfer work fails the check; one that removes some
lowers the bound in the same change.
"""

import cProfile
import pstats
import sys
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.backends import gpuccl  # noqa: E402
from repro.backends.gpushmem import ShmemContext  # noqa: E402
from repro.backends.mpi import MpiContext, waitall  # noqa: E402
from repro.launcher import launch  # noqa: E402
from repro.serve import JobSpec, execute_job  # noqa: E402

PACKAGE = str(Path(repro.__file__).resolve().parent)
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")
ROUNDS = (20, 40)
COUNT = 16  # float32 elements per transfer

#: Upper bounds: calls per transfer for the census programs, calls per
#: pass for jacobi-live — each the count when the bound was set (the
#: per-pair records of the three data planes, docs/LOGBOOK.md "A transfer
#: resolves its pair once"), plus 5 %.
BOUNDS = {
    "mpi-pingpong": 71.2,  # 67.8
    "gpuccl-ring": 74.6,  # 71.0
    "gpushmem-signal": 97.7,  # 93.0
    "jacobi-live": 998_101,  # 950 572
}


def _mpi_pingpong(ctx, rounds):
    ctx.set_device(ctx.node_rank)
    mpi = MpiContext(ctx)
    comm = mpi.comm_world
    device = ctx.require_device()
    a, b = device.malloc(COUNT), device.malloc(COUNT)
    peer = 1 - comm.rank
    for i in range(rounds):
        if comm.rank == 0:
            waitall([comm.isend(a, COUNT, peer, tag=i), comm.irecv(b, COUNT, peer, tag=i)])
        else:
            waitall([comm.irecv(b, COUNT, peer, tag=i)])
            waitall([comm.isend(b, COUNT, peer, tag=i)])
    mpi.finalize()


def _gpuccl_ring(ctx, rounds):
    ctx.set_device(ctx.node_rank)
    uid = ctx.job.shared_state("census_uid", gpuccl.get_unique_id)
    comm = gpuccl.GpucclComm(ctx, uid, ctx.world_size, ctx.rank)
    device = ctx.require_device()
    stream = device.create_stream()
    a, b = device.malloc(COUNT), device.malloc(COUNT)
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for _ in range(rounds):
        gpuccl.group_start()
        comm.send(a, COUNT, right, stream)
        comm.recv(b, COUNT, left, stream)
        gpuccl.group_end()
        stream.synchronize()


def _gpushmem_signal(ctx, rounds):
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    stream = ctx.require_device().create_stream()
    src, dst = shmem.malloc(COUNT), shmem.malloc(COUNT)
    sig = shmem.malloc(1, np.uint64)
    right = (shmem.my_pe + 1) % shmem.n_pes
    for i in range(1, rounds + 1):
        shmem.put_signal_on_stream(dst, src, COUNT, sig, i, right, stream)
        shmem.signal_wait_until_on_stream(sig, "ge", i, stream)
        stream.synchronize()


#: name -> (rank body, ranks, the counter whose series sum is the transfers)
PROGRAMS = {
    "mpi-pingpong": (_mpi_pingpong, 2, "mpi_messages_total"),
    "gpuccl-ring": (_gpuccl_ring, 4, "gpuccl_messages_total"),
    "gpushmem-signal": (_gpushmem_signal, 4, "shmem_puts_total"),
}

JACOBI_LIVE = [dict(app="jacobi", backend=backend, mode=mode, ranks=64, size=64,
                    iters=11, collect=True)
               for backend, mode in (("mpi", "PureHost"), ("gpuccl", "PureHost"),
                                     ("gpushmem", "PureHost"),
                                     ("gpushmem", "PureDevice"))]
TRANSFER_COUNTERS = ("mpi_messages_total", "gpuccl_messages_total", "shmem_puts_total")


def _repro_calls(profiles) -> int:
    stats = pstats.Stats(*profiles).stats
    return sum(nc for (filename, _, name), (_, nc, *_rest) in stats.items()
               if filename.startswith(PACKAGE) and name not in COMPREHENSIONS)


def profiled(fn):
    """``(fn(), calls into repro on every thread while it ran)``.

    Before Python 3.12 a profiler hooks only the thread that enables it,
    so each thread started meanwhile enables one of its own; from 3.12 on
    cProfile rides ``sys.monitoring``, which sees every thread (and admits
    one profiler at a time)."""
    main = cProfile.Profile()
    profiles = [main]
    per_thread = sys.version_info < (3, 12)

    def start_thread_profile(*_):
        sys.setprofile(None)
        profile = cProfile.Profile()
        profiles.append(profile)
        profile.enable()

    if per_thread:
        threading.setprofile(start_thread_profile)
    main.enable()
    try:
        result = fn()
    finally:
        main.disable()
        if per_thread:
            threading.setprofile(None)
    return result, _repro_calls(profiles)


def _transfers(metrics, names) -> int:
    return int(sum(metrics.counter_total(name) for name in names))


def census(name):
    """Marginal repro calls per transfer of one census program."""
    body, ranks, counter = PROGRAMS[name]
    points = []
    for rounds in ROUNDS:
        report, calls = profiled(lambda: launch(body, ranks, args=(rounds,)))
        points.append((calls, _transfers(report.metrics, (counter,))))
    (c0, t0), (c1, t1) = points
    return (c1 - c0) / (t1 - t0), t1 - t0


def jacobi_live():
    """Total repro calls of the jacobi_live job list, and its transfers."""
    def run():
        return [execute_job(JobSpec.from_dict(job).to_dict()) for job in JACOBI_LIVE]

    docs, calls = profiled(run)
    transfers = 0
    for doc in docs:
        counters = doc["report"]["metrics"]["counters"]
        transfers += sum(v for k, v in counters.items()
                         if k.split("{")[0] in TRANSFER_COUNTERS)
    return calls, int(transfers)


def main(argv) -> int:
    if argv not in ([], ["--check"]):
        print("usage: call_census.py [--check]", file=sys.stderr)
        return 2
    readings = {}
    for name in PROGRAMS:
        per, transfers = census(name)
        readings[name] = per
        print(f"{name:16s} {per:8.1f} calls/transfer  ({transfers} transfers marginal)")
    calls, transfers = jacobi_live()
    readings["jacobi-live"] = calls
    print(f"{'jacobi-live':16s} {calls:8d} calls  ({transfers} transfers, "
          f"{calls / transfers:.1f} calls/transfer)")
    if not argv:
        return 0
    over = [f"{name}: {readings[name]:.1f} > bound {bound}"
            for name, bound in BOUNDS.items() if readings[name] > bound]
    for line in over:
        print(f"OVER {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
