"""Tests for the Coordinator: P2P, grouping, collectives, launch modes.

The central portability claim of the paper is tested literally here: ONE
exchange routine written against the Uniconn API runs unchanged over MPI,
GPUCCL, and GPUSHMEM (and, for the device modes, inside GPU kernels).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import Coordinator, IN_PLACE, LaunchMode, Memory, ThreadGroup, launch
from repro.errors import UniconnError
from repro.gpu import device_kernel, kernel
from repro.hardware import KernelCost
from repro.sim import Tracer
from tests.core.conftest import ALL_BACKENDS, uniconn_run

# The "coordinator surface" program `make digest` pins: every public
# Coordinator method once, per-step payloads returned.
_spec = importlib.util.spec_from_file_location(
    "run_digest", Path(__file__).resolve().parents[2] / "tools" / "run_digest.py")
run_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_digest)

OBS_LEVELS = ["off", "metrics", "spans"]


def ring_exchange_once(env, comm, coord, iteration=1):
    """One neighbour exchange in a ring — the paper's halo pattern,
    written once for every backend."""
    p = comm.global_size()
    me = comm.global_rank()
    right, left = (me + 1) % p, (me - 1 + p) % p
    send = Memory.alloc(env, 4)
    recv = Memory.alloc(env, 4)
    sig = Memory.alloc(env, 2, dtype=np.uint64)
    send.write(np.full(4, float(me + 1), np.float32))
    comm.barrier(stream=coord.stream)

    coord.comm_start()
    coord.post(send, recv, 4, sig, iteration, right, comm)
    coord.acknowledge(recv, 4, sig, iteration, left, comm)
    coord.comm_end()
    coord.stream.synchronize()
    return recv.read().tolist()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("nranks", [2, 4])
def test_same_exchange_code_runs_on_every_backend(backend, nranks):
    results = uniconn_run(nranks, backend, ring_exchange_once)
    for me, got in enumerate(results):
        left = (me - 1 + nranks) % nranks
        assert got == [float(left + 1)] * 4, f"backend={backend} rank={me}"


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_repeated_iterations_with_signal_values(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1 + p) % p
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        seen = []
        for it in range(1, 4):
            send.write(np.full(2, float(me * 10 + it), np.float32))
            comm.barrier(stream=coord.stream)
            coord.comm_start()
            coord.post(send, recv, 2, sig, it, right, comm)
            coord.acknowledge(recv, 2, sig, it, left, comm)
            coord.comm_end()
            coord.stream.synchronize()
            seen.append(recv.read()[0])
        return seen

    results = uniconn_run(2, backend, body)
    assert results[0] == [11.0, 12.0, 13.0]
    assert results[1] == [1.0, 2.0, 3.0]


def test_comm_start_end_misuse_detected():
    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="without comm_start"):
            coord.comm_end()
        coord.comm_start()
        with pytest.raises(UniconnError, match="inside an open group"):
            coord.comm_start()
        coord.comm_end()
        return True

    assert all(uniconn_run(1, "mpi", body))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("op,expected", [("sum", 10.0), ("max", 4.0), ("min", 1.0), ("prod", 24.0)])
def test_all_reduce_ops(backend, op, expected):
    def body(env, comm, coord):
        send = Memory.alloc(env, 3)
        recv = Memory.alloc(env, 3)
        send.write(np.full(3, float(comm.global_rank() + 1), np.float32))
        coord.all_reduce(send, recv, 3, op, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [expected] * 3 for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_reduce_in_place(backend):
    def body(env, comm, coord):
        buf = Memory.alloc(env, 2)
        buf.write(np.full(2, float(comm.global_rank()), np.float32))
        coord.all_reduce(IN_PLACE, buf, 2, "sum", comm)
        coord.stream.synchronize()
        return buf.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [6.0, 6.0] for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_reduce_to_root(backend):
    def body(env, comm, coord):
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2)
        send.write(np.full(2, float(comm.global_rank() + 1), np.float32))
        coord.reduce(send, recv, 2, "sum", 1, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(3, backend, body)
    assert results[1] == [6.0, 6.0]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_broadcast(backend):
    def body(env, comm, coord):
        buf = Memory.alloc(env, 4)
        if comm.global_rank() == 0:
            buf.write(np.arange(4, dtype=np.float32))
        coord.broadcast(buf, 4, 0, comm)
        coord.stream.synchronize()
        return buf.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [0, 1, 2, 3] for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_gather(backend):
    def body(env, comm, coord):
        p = comm.global_size()
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2 * p)
        send.write(np.full(2, float(comm.global_rank()), np.float32))
        coord.all_gather(send, recv, 2, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    expected = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_gather_v_ragged(backend):
    counts = [1, 3, 2, 2]
    displs = [0, 1, 4, 6]

    def body(env, comm, coord):
        me = comm.global_rank()
        # Symmetric-heap contract: allocations must be identical on every
        # PE, so ragged contributions allocate the maximum block size.
        send = Memory.alloc(env, max(counts))
        recv = Memory.alloc(env, 8)
        send.write(np.full(max(counts), float(me + 1), np.float32))
        coord.all_gather_v(send, counts[me], recv, counts, displs, comm)
        coord.stream.synchronize()
        # One-sided backends complete remote writes at the barrier; the
        # stream sync above covers it on every backend.
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    expected = [1, 2, 2, 2, 3, 3, 4, 4]
    assert all(r == expected for r in results), results


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gather_and_scatter(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        send = Memory.alloc(env, 2)
        gathered = Memory.alloc(env, 2 * p)
        send.write(np.full(2, float(me), np.float32))
        coord.gather(send, gathered, 2, 0, comm)
        coord.stream.synchronize()
        comm.barrier(stream=coord.stream)
        out = Memory.alloc(env, 2)
        coord.scatter(gathered, out, 2, 0, comm)
        coord.stream.synchronize()
        return gathered.read().tolist() if me == 0 else None, out.read().tolist()

    results = uniconn_run(4, backend, body)
    assert results[0][0] == [0, 0, 1, 1, 2, 2, 3, 3]
    for me, (_, got) in enumerate(results):
        assert got == [float(me)] * 2


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_to_all(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        send = Memory.alloc(env, p)
        recv = Memory.alloc(env, p)
        send.write(np.array([me * 10.0 + c for c in range(p)], np.float32))
        coord.all_to_all(send, recv, 1, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    for me, got in enumerate(results):
        assert got == [c * 10.0 + me for c in range(4)]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_in_place_rejected_where_not_accepted(backend):
    # Only all_reduce, reduce, reduce_scatter and gather_v accept IN_PLACE;
    # the others reject it before they count, charge or post anything.
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        buf = Memory.alloc(env, 4 * p)
        start = env.engine.now
        for op, call in {
            "all_gather": lambda: coord.all_gather(IN_PLACE, buf, 4, comm),
            "all_to_all": lambda: coord.all_to_all(IN_PLACE, buf, 4, comm),
            "scatter_v": lambda: coord.scatter_v(buf, [4] * p, [4 * r for r in range(p)],
                                                 IN_PLACE, 4, 0, comm),
        }.items():
            with pytest.raises(UniconnError, match=f"^{op} does not accept IN_PLACE$"):
                call()
        return env.engine.now - start

    report = uniconn_run(2, backend, body)
    assert list(report) == [0.0, 0.0]
    for op in ("all_gather", "all_to_all", "scatter_v"):
        assert report.metrics.counter_total("uniconn_calls_total", op=op) == 0


# --------------------------------------------------------------------- #
# Launch modes.
# --------------------------------------------------------------------- #


def test_device_modes_require_gpushmem():
    def body(env, comm, coord):
        return True

    with pytest.raises(UniconnError, match="requires a device-API backend"):
        uniconn_run(1, "mpi", body, launch_mode="PureDevice")


def test_bind_kernel_only_matching_mode_stored():
    host_k = kernel(cost=KernelCost(bytes_moved=1.0))(lambda ctx, out: out.append("host"))
    dev_k = device_kernel()(lambda ctx, out: out.append("dev"))

    def body(env, comm, coord):
        out = []
        coord.bind_kernel(LaunchMode.PureHost, host_k, 1, 32, args=(out,))
        coord.bind_kernel(LaunchMode.PureDevice, dev_k, 1, 32, args=(out,))
        coord.launch_kernel()
        coord.stream.synchronize()
        return out

    assert uniconn_run(1, "mpi", body, launch_mode="PureHost") == [["host"]]
    assert uniconn_run(1, "gpushmem", body, launch_mode="PureDevice") == [["dev"]]


def test_bind_kernel_kind_mismatch_rejected():
    dev_k = device_kernel()(lambda ctx: None)
    host_k = kernel()(lambda ctx: None)

    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="compute-only"):
            coord.bind_kernel(LaunchMode.PureHost, dev_k, 1, 32)
        return True

    assert all(uniconn_run(1, "mpi", body, launch_mode="PureHost"))

    def body2(env, comm, coord):
        with pytest.raises(UniconnError, match="device_kernel"):
            coord.bind_kernel(LaunchMode.PureDevice, host_k, 1, 32)
        return True

    assert all(uniconn_run(1, "gpushmem", body2, launch_mode="PureDevice"))


def test_launch_without_binding_rejected():
    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="no kernel bound"):
            coord.launch_kernel()
        return True

    assert all(uniconn_run(1, "mpi", body))


def test_pure_device_ring_exchange_inside_kernel():
    """Listing 5: Post/Acknowledge fully inside the kernel via ctx.uniconn."""

    @device_kernel()
    def exchange(ctx, send, recv, sig, comm_d, it, out):
        u = ctx.uniconn
        p, me = comm_d.size, comm_d.rank
        right, left = (me + 1) % p, (me - 1 + p) % p
        u.post(send, recv, 4, sig, it, right, comm_d, group=ThreadGroup.BLOCK)
        u.acknowledge(recv, 4, sig, it, left, comm_d)
        out.append(recv.read().tolist())

    def body(env, comm, coord):
        send = Memory.alloc(env, 4)
        recv = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        send.write(np.full(4, float(comm.global_rank() + 1), np.float32))
        comm.barrier(stream=coord.stream)
        out = []
        comm_d = comm.to_device()
        coord.bind_kernel(LaunchMode.PureDevice, exchange, 2, 128,
                          args=(send, recv, sig, comm_d, 1, out))
        coord.launch_kernel()
        # Host Post/Acknowledge are no-ops in PureDevice mode.
        coord.comm_start()
        coord.post(send, recv, 4, sig, 1, 0, comm)
        coord.acknowledge(recv, 4, sig, 1, 0, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return out[0]

    results = uniconn_run(4, "gpushmem", body, launch_mode="PureDevice")
    for me, got in enumerate(results):
        left = (me - 1 + 4) % 4
        assert got == [float(left + 1)] * 4


def test_partial_device_exchange():
    """Listing 6 pattern: device puts the payload (no signal); the host's
    Post sends the ordered signal and Acknowledge waits for it."""

    @device_kernel()
    def push_halo(ctx, send, recv, comm_d):
        u = ctx.uniconn
        p, me = comm_d.size, comm_d.rank
        right = (me + 1) % p
        u.post(send, recv, 4, None, 0, right, comm_d, group=ThreadGroup.BLOCK)

    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1 + p) % p
        send = Memory.alloc(env, 4)
        recv = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        send.write(np.full(4, float(me + 1), np.float32))
        comm.barrier(stream=coord.stream)
        comm_d = comm.to_device()
        coord.bind_kernel(LaunchMode.PartialDevice, push_halo, 2, 128,
                          args=(send, recv, comm_d))
        coord.launch_kernel()
        coord.comm_start()
        coord.post(send, recv, 4, sig, 1, right, comm)
        coord.acknowledge(recv, 4, sig, 1, left, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, "gpushmem", body, launch_mode="PartialDevice")
    for me, got in enumerate(results):
        left = (me - 1 + 4) % 4
        assert got == [float(left + 1)] * 4


def test_thread_group_granularities_all_work():
    @device_kernel()
    def put_with(ctx, send, recv, sig, comm_d, group):
        ctx.uniconn.post(send, recv, 2, sig, 1, 1 - comm_d.rank, comm_d, group=group)
        ctx.uniconn.acknowledge(recv, 2, sig, 1, 1 - comm_d.rank, comm_d)

    def body_of(group):
        def body(env, comm, coord):
            send = Memory.alloc(env, 2)
            recv = Memory.alloc(env, 2)
            sig = Memory.alloc(env, 1, dtype=np.uint64)
            send.write(np.full(2, float(comm.global_rank() + 5), np.float32))
            comm.barrier(stream=coord.stream)
            comm_d = comm.to_device()
            coord.bind_kernel(LaunchMode.PureDevice, put_with, 1, 64,
                              args=(send, recv, sig, comm_d, group))
            coord.launch_kernel()
            coord.stream.synchronize()
            return recv.read().tolist()

        return body

    for group in (ThreadGroup.THREAD, ThreadGroup.WARP, ThreadGroup.BLOCK):
        results = uniconn_run(2, "gpushmem", body_of(group), launch_mode="PureDevice")
        assert results[0] == [6.0, 6.0]
        assert results[1] == [5.0, 5.0]


# --------------------------------------------------------------------- #
# The whole surface: one implementation per backend, one behaviour.
# --------------------------------------------------------------------- #

#: uniconn_calls_total per rank of the surface program (17 steps on 4 ranks).
SURFACE_CALLS = {
    "all_reduce": 2, "reduce": 2, "broadcast": 1, "all_gather": 1, "reduce_scatter": 2,
    "all_gather_v": 2, "gather_v": 2, "scatter_v": 2, "all_to_all": 1,
    "comm_start": 1, "comm_end": 1, "barrier": 2 * 17,
}
ROOTED = {"reduce", "broadcast", "gather_v", "scatter_v"}


def _surface(backend, obs):
    tracer = Tracer()
    report = launch(run_digest.surface(backend), 4, obs=obs, tracer=tracer)
    return report, tracer


@pytest.fixture(scope="module")
def surface_reference():
    return _surface("mpi", "metrics")[0]


@pytest.mark.parametrize("obs", OBS_LEVELS)
@pytest.mark.parametrize("backend", ALL_BACKENDS + ["mpi-rma"])
def test_surface_payloads_counts_and_spans(backend, obs, surface_reference):
    name = "mpi" if backend == "mpi-rma" else backend  # the metric label
    report, tracer = _surface(backend, obs)
    for rank, steps in enumerate(report):
        assert len(steps) == 17
        for step, (got, want) in enumerate(zip(steps, surface_reference[rank])):
            assert np.array_equal(got, want), f"{backend} rank {rank} step {step}"

    m = report.metrics
    if obs == "off":
        assert m.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
    else:
        for op, per_rank in SURFACE_CALLS.items():
            for rank in range(4):
                assert m.counter("uniconn_calls_total", op=op, backend=name,
                                 rank=rank) == per_rank, (op, rank)
        # The ring: everyone; the ungrouped pair: evens post, odds acknowledge.
        assert [m.counter("uniconn_calls_total", op="post", backend=name, rank=r)
                for r in range(4)] == [2, 1, 2, 1]
        assert [m.counter("uniconn_calls_total", op="acknowledge", backend=name, rank=r)
                for r in range(4)] == [1, 2, 1, 2]
        assert m.counter_total("uniconn_calls_total") == 4 * sum(SURFACE_CALLS.values()) + 12

    spans = [r for r in tracer.records if r.kind in ("span.begin", "span.end")]
    if obs != "spans":
        assert spans == []
        return
    stacks = {rank: [] for rank in range(4)}
    seen = set()
    for record in spans:
        f = record.fields
        assert f["backend"] == name and f["gpu"] == f["rank"]
        stack = stacks[f["rank"]]
        if record.kind == "span.begin":
            stack.append(f["name"])
            continue
        assert stack.pop() == f["name"]  # begin/end nest per rank
        seen.add(f["name"])
        if f["name"] in ("post", "acknowledge"):
            assert f["cat"] == "comm" and f["nbytes"] == 16
            assert abs(f["peer"] - f["rank"]) in (1, 3)
        elif f["name"] in SURFACE_CALLS and f["name"] not in ("comm_start", "comm_end", "barrier"):
            assert f["cat"] == "comm" and f["nbytes"] > 0
            assert ("root" in f) == (f["name"] in ROOTED)
    assert all(stack == [] for stack in stacks.values())
    assert seen >= (set(SURFACE_CALLS) - {"comm_start", "comm_end"}) | {
        "post", "acknowledge", "comm_group"}
    assert ("stream.sync" in seen) == (name == "mpi")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_surface_is_race_free_under_the_sanitizer(backend):
    """Each step ends in synchronize + barrier; on GPUSHMEM the stream's last
    op is then a signal wait finished by the remote notifier."""
    report = launch(run_digest.surface(backend), 4, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)


@device_kernel(name="push_right")
def _push_right(ctx, send, recv, sig, comm_d):
    """Device half of a ring exchange: payload only when ``sig`` is None
    (PartialDevice), the whole exchange otherwise (PureDevice)."""
    u, right, left = ctx.uniconn, (comm_d.rank + 1) % comm_d.size, (comm_d.rank - 1) % comm_d.size
    u.post(send, recv, 4, sig, 1, right, comm_d, group=ThreadGroup.BLOCK)
    if sig is not None:
        u.acknowledge(recv, 4, sig, 1, left, comm_d)


@pytest.mark.parametrize("obs", OBS_LEVELS)
@pytest.mark.parametrize("mode", ["PartialDevice", "PureDevice"])
def test_device_modes_launch_count_and_bracket(mode, obs):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        send, recv = Memory.alloc(env, 4), Memory.alloc(env, 4)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        send.write(np.full(4, float(me + 1), np.float32))
        comm.barrier(stream=coord.stream)
        coord.bind_kernel(mode, _push_right, 2, 128, args=(
            send, recv, sig if mode == "PureDevice" else None, comm.to_device()))
        coord.launch_kernel()
        coord.comm_start()
        coord.post(send, recv, 4, sig, 1, (me + 1) % p, comm)
        coord.acknowledge(recv, 4, sig, 1, (me - 1) % p, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return recv.read().tolist()

    tracer = Tracer()
    report = uniconn_run(4, "gpushmem", body, launch_mode=mode, obs=obs, tracer=tracer)
    assert list(report) == [[float((me - 1) % 4 + 1)] * 4 for me in range(4)]
    m = report.metrics
    for op in ("launch_kernel", "comm_start", "post", "acknowledge", "comm_end"):
        assert m.counter_total("uniconn_calls_total", op=op) == (0 if obs == "off" else 4)
    # PureDevice's host Post/Acknowledge move nothing: every put is the kernel's.
    assert m.counter_total("shmem_puts_total") == (0 if obs == "off" else 4 * (2 - (mode == "PureDevice")))
    names = [r.fields["name"] for r in tracer.records if r.kind == "span.begin"]
    if obs == "spans":
        assert names.count("launch:push_right") == names.count("post") == 4
    else:
        assert names == []


def test_wrong_buffers_and_modes_keep_their_messages():
    def shmem_body(env, comm, coord):
        plain = np.zeros(8, np.float32)
        sym, sig = Memory.alloc(env, 8), Memory.alloc(env, 1, dtype=np.uint64)
        for what, call in {
            "post": lambda: coord.post(sym, plain, 4, sig, 1, 0, comm),
            "all_gather_v": lambda: coord.all_gather_v(sym, 1, plain, [1, 1], [0, 1], comm),
            "gather_v": lambda: coord.gather_v(sym, 1, plain, [1, 1], [0, 1], 0, comm),
            "scatter_v": lambda: coord.scatter_v(sym, [1, 1], [0, 1], plain, 1, 0, comm),
        }.items():
            with pytest.raises(UniconnError, match=f"^{what} over GPUSHMEM needs a symmetric "
                                                   r"destination buffer \(allocate it with"):
                call()
        return True

    assert all(uniconn_run(2, "gpushmem", shmem_body))
    assert all(uniconn_run(2, "gpushmem", shmem_body, launch_mode="PartialDevice"))

    def rma_body(env, comm, coord):
        plain, sig = env.device.malloc(4), Memory.alloc(env, 1, dtype=np.uint64)
        with pytest.raises(UniconnError, match="^post over one-sided MPI needs window-backed"):
            coord.post(plain, plain, 4, sig, 1, 0, comm)
        with pytest.raises(UniconnError, match="^acknowledge over one-sided MPI needs"):
            coord.acknowledge(plain, 4, sig, 1, 0, comm)
        return coord.uses_signals

    assert all(uniconn_run(2, "mpi-rma", rma_body))

    for backend in ("mpi", "gpuccl"):
        with pytest.raises(UniconnError, match=r"launch mode PartialDevice requires a device-API "
                                               rf"backend \(GPUSHMEM\); got {backend}"):
            uniconn_run(1, backend, lambda env, comm, coord: None, launch_mode="PartialDevice")


def test_one_class_per_backend_and_mode_all_coordinators():
    seen = {}

    def body(env, comm, coord):
        seen[(env.backend.name, coord.launch_mode.name, env.engine.obs_spans)] = type(coord)
        assert isinstance(coord, Coordinator)
        return coord.uses_signals

    for backend, mode in [("mpi", None), ("gpuccl", None), ("gpushmem", "PureHost"),
                          ("gpushmem", "PartialDevice"), ("gpushmem", "PureDevice")]:
        for obs in ("metrics", "spans"):
            # (a tracer: spans with no sink to record into are not a level)
            signals = uniconn_run(1, backend, body, launch_mode=mode, obs=obs,
                                  tracer=Tracer())
            assert list(signals) == [backend == "gpushmem"]
    assert len(set(seen.values())) == len(seen) == 10
