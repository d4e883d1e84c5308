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
  plus a signal wait on the stream (``shmem_puts_total``);
- ``mpi-ring``: four ranks, a stream sync, ``isend`` right, a stream sync,
  ``irecv`` left, ``waitall``, a stream sync (``mpi_messages_total``);
- ``uniconn-mpi``, ``uniconn-gpuccl``, ``uniconn-gpushmem``: the same ring
  on four ranks through ``Environment``/``Communicator``/``Coordinator``/
  ``Memory`` — ``comm_start``, ``post`` right, ``acknowledge`` left,
  ``comm_end``, a stream sync. Each has a native twin of exactly its
  pattern (``TWINS``: ``mpi-ring``, ``gpuccl-ring``, ``gpushmem-signal``);
  the report prints the difference, and the calls per transfer of the
  functions under ``core/`` (the Uniconn layer's own frames).

Each program runs once unprofiled before the two counted launches, so
one-time work of a process (an import, a cache fill) lands in neither and
the reading does not depend on which program ran first.

``jacobi-live`` is the benchmark's ``jacobi_live`` job list (64 ranks, 11
iterations; ``uniconn:mpi``, ``uniconn:gpuccl``, ``uniconn:gpushmem`` and
``uniconn:gpushmem:PureDevice``) through ``execute_job``; it reports the
pass's total calls and its transfers.

Usage::

    python tools/call_census.py            # print the counts
    python tools/call_census.py --check    # also exit 1 above a bound or
                                           # over a core/ budget
    python tools/call_census.py --breakdown mpi-pingpong
                                           # marginal calls per transfer
                                           # of each repro function

The breakdown says where a program's per-transfer calls go: how many
objects a transfer builds (their ``__init__`` rows), which wrappers it
passes through, which hook it pays for.

Each bound in ``BOUNDS`` is the count when it was last set plus 5 %: a
change that adds per-transfer work fails the check; one that removes some
lowers the bound in the same change. ``CORE_BUDGET`` caps each Uniconn
program's ``core/`` calls per transfer: one frame per entry point (the MPI
binding adds the stream drain before ``post`` and ``acknowledge``).
"""

import cProfile
import os
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
from repro.core import Communicator, Coordinator, Environment, Memory  # noqa: E402
from repro.launcher import launch  # noqa: E402
from repro.serve import JobSpec, execute_job  # noqa: E402

PACKAGE = str(Path(repro.__file__).resolve().parent)
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")
ROUNDS = (20, 40)
COUNT = 16  # float32 elements per transfer

#: Upper bounds: calls per transfer for the census programs, calls per
#: pass for jacobi-live — each the count when the bound was set, plus 5 %.
#: docs/LOGBOOK.md says why each was last set: "A transfer resolves its pair
#: once" (gpuccl-ring, gpushmem-signal), "An MPI message is two records"
#: (mpi-pingpong, at 62.8: read first in its process, before the warm-up
#: launch existed), "Uniconn binds once" (the others).
BOUNDS = {
    "mpi-pingpong": 65.9,  # 63.0
    "gpuccl-ring": 74.6,  # 71.0
    "gpushmem-signal": 97.7,  # 93.0
    "mpi-ring": 68.3,  # 65.0
    "uniconn-mpi": 83.0,  # 79.0
    "uniconn-gpuccl": 89.3,  # 85.0
    "uniconn-gpushmem": 114.5,  # 109.0
    "jacobi-live": 947_500,  # 902 346
}

#: Most calls per transfer a Uniconn program may make into ``core/``.
CORE_BUDGET = {"uniconn-mpi": 6.0, "uniconn-gpuccl": 4.0, "uniconn-gpushmem": 4.0}


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


def _mpi_ring(ctx, rounds):
    """The native twin of ``uniconn-mpi``: the stream drains the Uniconn
    MPI binding makes before each call, then the same messages."""
    ctx.set_device(ctx.node_rank)
    mpi = MpiContext(ctx)
    comm = mpi.comm_world
    device = ctx.require_device()
    stream = device.create_stream()
    a, b = device.malloc(COUNT), device.malloc(COUNT)
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    for _ in range(rounds):
        stream.synchronize()
        send = comm.isend(a, COUNT, right)
        stream.synchronize()
        waitall([send, comm.irecv(b, COUNT, left)])
        stream.synchronize()
    mpi.finalize()


def _uniconn_ring(backend):
    def ring(ctx, rounds):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        coord = Coordinator(env, stream=env.device.create_stream())
        send, recv = Memory.alloc(env, COUNT), Memory.alloc(env, COUNT)
        sig = Memory.alloc(env, 1, dtype=np.uint64) if coord.uses_signals else None
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1) % p
        for i in range(1, rounds + 1):
            coord.comm_start()
            coord.post(send, recv, COUNT, sig, i, right, comm)
            coord.acknowledge(recv, COUNT, sig, i, left, comm)
            coord.comm_end()
            coord.stream.synchronize()
        env.close()

    return ring


#: name -> (rank body, ranks, the counter whose series sum is the transfers)
PROGRAMS = {
    "mpi-pingpong": (_mpi_pingpong, 2, "mpi_messages_total"),
    "gpuccl-ring": (_gpuccl_ring, 4, "gpuccl_messages_total"),
    "gpushmem-signal": (_gpushmem_signal, 4, "shmem_puts_total"),
    "mpi-ring": (_mpi_ring, 4, "mpi_messages_total"),
    "uniconn-mpi": (_uniconn_ring("mpi"), 4, "mpi_messages_total"),
    "uniconn-gpuccl": (_uniconn_ring("gpuccl"), 4, "gpuccl_messages_total"),
    "uniconn-gpushmem": (_uniconn_ring("gpushmem"), 4, "shmem_puts_total"),
}

#: Uniconn program -> its native twin
TWINS = {"uniconn-mpi": "mpi-ring", "uniconn-gpuccl": "gpuccl-ring",
         "uniconn-gpushmem": "gpushmem-signal"}

JACOBI_LIVE = [dict(app="jacobi", backend=backend, mode=mode, ranks=64, size=64,
                    iters=11, collect=True)
               for backend, mode in (("mpi", "PureHost"), ("gpuccl", "PureHost"),
                                     ("gpushmem", "PureHost"),
                                     ("gpushmem", "PureDevice"))]
TRANSFER_COUNTERS = ("mpi_messages_total", "gpuccl_messages_total", "shmem_puts_total")


def _repro_calls(profiles) -> dict:
    """Calls into each repro function, keyed ``path:line(name)``."""
    stats = pstats.Stats(*profiles).stats
    return {f"{os.path.relpath(filename, PACKAGE)}:{line}({name})": nc
            for (filename, line, name), (_, nc, *_rest) in stats.items()
            if filename.startswith(PACKAGE) and name not in COMPREHENSIONS}


def profiled(fn, by_function=False):
    """``(fn(), calls into repro on every thread while it ran)``; with
    ``by_function`` the calls are a dict per function (see
    :func:`_repro_calls`).

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
    calls = _repro_calls(profiles)
    return result, (calls if by_function else sum(calls.values()))


def _transfers(metrics, names) -> int:
    return int(sum(metrics.counter_total(name) for name in names))


def census(name):
    """Marginal repro calls per transfer of one census program, per
    function whose count moved, and the marginal transfers."""
    body, ranks, counter = PROGRAMS[name]
    launch(body, ranks, args=(ROUNDS[0],))  # warm-up: one-time work lands here
    points = []
    for rounds in ROUNDS:
        report, calls = profiled(lambda: launch(body, ranks, args=(rounds,)), by_function=True)
        points.append((calls, _transfers(report.metrics, (counter,))))
    (c0, t0), (c1, t1) = points
    return {f: (c1.get(f, 0) - c0.get(f, 0)) / (t1 - t0) for f in {*c0, *c1}
            if c1.get(f, 0) != c0.get(f, 0)}, t1 - t0


def breakdown(name) -> None:
    """Print one census program's marginal calls per transfer by function,
    most first. A negative row is one-time work the first launch of the
    process does (an import, a cache fill), which the marginal count
    subtracts as the census itself does."""
    per, transfers = census(name)
    for function, n in sorted(per.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:8.2f}  {function}")
    print(f"{sum(per.values()):8.2f}  total per transfer ({name}, {transfers} "
          f"transfers marginal)")


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
    if len(argv) == 2 and argv[0] == "--breakdown" and argv[1] in PROGRAMS:
        breakdown(argv[1])
        return 0
    if argv not in ([], ["--check"]):
        print(f"usage: call_census.py [--check | --breakdown {{{','.join(PROGRAMS)}}}]",
              file=sys.stderr)
        return 2
    readings, over = {}, []
    for name in PROGRAMS:
        by_function, transfers = census(name)
        per = readings[name] = sum(by_function.values())
        print(f"{name:16s} {per:8.1f} calls/transfer  ({transfers} transfers marginal)")
        if name in TWINS:
            core = sum(n for f, n in by_function.items() if f.startswith("core" + os.sep))
            print(f"{'':16s} {per - readings[TWINS[name]]:8.1f} over {TWINS[name]}, "
                  f"{core:.1f} of them in core/")
            if core > CORE_BUDGET[name]:
                over.append(f"{name} core/: {core:.1f} > budget {CORE_BUDGET[name]}")
    calls, transfers = jacobi_live()
    readings["jacobi-live"] = calls
    print(f"{'jacobi-live':16s} {calls:8d} calls  ({transfers} transfers, "
          f"{calls / transfers:.1f} calls/transfer)")
    if not argv:
        return 0
    over += [f"{name}: {readings[name]:.1f} > bound {bound}"
             for name, bound in BOUNDS.items() if readings[name] > bound]
    for line in over:
        print(f"OVER {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
