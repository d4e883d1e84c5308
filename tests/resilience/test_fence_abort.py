"""The two data-plane teardown layers behind a revocation.

``Engine.fence()`` invalidates in-flight wire deliveries (payloads issued
before a revoke must not land in buffers a later generation rebuilt), and
``Stream.abort()`` abandons a failed generation's stream (its pending
kernels' memory actions are discarded). Both preserve *accounting*: fenced
ops still retire so quiet()/sync counters stay balanced, and an aborted
stream's waiters are released rather than left hanging.
"""

import numpy as np
import pytest

from repro.backends.gpushmem import ShmemContext
from repro.errors import GpuError
from repro.gpu.stream import TimedOp
from repro.launcher import launch
from repro.sim import Engine


# --------------------------------------------------------------------------- #
# Engine.fence
# --------------------------------------------------------------------------- #


def test_fence_bumps_epoch_monotonically():
    engine = Engine()
    assert engine.fence_epoch == 0
    assert engine.fence() == 1
    assert engine.fence() == 2
    assert engine.fence_epoch == 2


def test_revoke_fences_exactly_once():
    def main(ctx):
        from repro.core import Communicator, Environment

        env = Environment(ctx, backend="mpi")
        env.set_device(ctx.node_rank)
        comm = Communicator(env)
        comm.revoke("first")
        comm.revoke("second — latched, must not fence again")
        ctx.engine.sleep(1e-4)
        return ctx.engine.fence_epoch

    # Both ranks revoke twice, but the latch admits exactly one fence for
    # the whole revocation (the epoch is engine-global).
    assert list(launch(main, 2)) == [1, 1]


# Every in-flight payload kind, fenced mid-flight and (the control) not.
#
# Two ranks; rank 0 issues at T0 and rank 1 plays the revoking survivor.
# ``fence`` is None (control), ON_THE_WIRE (point-to-point kinds: fence the
# instant the payload's wire reservation shows up in
# ``link_busy_seconds_total``) or a delay after T0 (fused collectives have
# no wire reservation, so they are fenced halfway through the measured
# duration of a long one). Each rank returns ``(value, ok, took)``: the
# first element of the destination it owns (None if it owns none) at T_END,
# whether its op retired/completed, and — fused collectives only — how long
# the control took.

T0, T_END = 1e-2, 3e-2
FILL = 7.0
SMALL, LARGE, HUGE = 16, 1 << 16, 1 << 22  # float32 elements
ON_THE_WIRE = "on-the-wire"


def _sleep_until(ctx, when):
    ctx.engine.sleep(when - ctx.engine.now)


def _survivor(ctx, fence):
    """Rank 1 of the point-to-point kinds: watch the wire, then revoke."""
    _sleep_until(ctx, T0 - 1e-6)
    metrics = ctx.engine.metrics
    base = metrics.counter_total("link_busy_seconds_total")
    while metrics.counter_total("link_busy_seconds_total") == base:
        ctx.engine.sleep(5e-8)
    if fence is not None:
        ctx.engine.fence()


def _mpi_p2p(ctx, fence, count):
    from repro.backends.mpi import MpiContext

    ctx.set_device(ctx.node_rank)
    comm = MpiContext(ctx).comm_world
    if ctx.rank == 0:
        _sleep_until(ctx, T0)
        req = comm.isend(np.full(count, FILL, np.float32), count, 1)
        req.wait()  # the sender's side completes at injection either way
        _sleep_until(ctx, T_END)
        return None, True, None
    buf = np.zeros(count, np.float32)
    _sleep_until(ctx, T0 - 1e-4)
    req = comm.irecv(buf, count, 0)
    _survivor(ctx, fence)
    _sleep_until(ctx, T_END)
    return float(buf[0]), req.done, None


def _mpi_eager(ctx, fence):
    return _mpi_p2p(ctx, fence, SMALL)


def _mpi_rendezvous(ctx, fence):
    return _mpi_p2p(ctx, fence, LARGE)


def _mpi_rma_put(ctx, fence):
    from repro.backends.mpi import MpiContext, MpiWindow

    ctx.set_device(ctx.node_rank)
    buf = np.zeros(LARGE, np.float32)
    win = MpiWindow(MpiContext(ctx).comm_world, buf, LARGE)
    if ctx.rank == 0:
        _sleep_until(ctx, T0)
        win.put(np.full(LARGE, FILL, np.float32), LARGE, target=1)
        win.flush()  # must not hang on the fenced op
        retired = ctx.engine.now < T_END
        _sleep_until(ctx, T_END)
        return None, retired, None
    _survivor(ctx, fence)
    _sleep_until(ctx, T_END)
    return float(buf[0]), True, None


def _gpuccl(ctx):
    from repro.backends.gpuccl import GpucclComm, get_unique_id

    ctx.set_device(ctx.node_rank)
    uid = ctx.job.shared_state("uid", get_unique_id)
    return GpucclComm(ctx, uid, ctx.world_size, ctx.rank), ctx.device.create_stream()


def _gpuccl_sendrecv(ctx, fence):
    comm, stream = _gpuccl(ctx)
    buf = ctx.device.malloc(LARGE, np.float32)
    if ctx.rank == 0:
        buf.write(np.full(LARGE, FILL, np.float32))
        _sleep_until(ctx, T0)
        comm.send(buf, LARGE, 1, stream)
        _sleep_until(ctx, T_END)
        return None, stream.idle, None
    _sleep_until(ctx, T0 - 1e-4)
    comm.recv(buf, LARGE, 0, stream)
    _survivor(ctx, fence)
    _sleep_until(ctx, T_END)
    return float(buf.read()[0]), stream.idle, None


def _fused(ctx, fence, stream, recv_value):
    """Shared tail of the fused-collective kinds, after the enqueue at T0."""
    took = None
    if fence is None:
        stream.synchronize()
        took = ctx.engine.now - T0
    elif ctx.rank == 1:
        ctx.engine.sleep(fence)
        ctx.engine.fence()
    _sleep_until(ctx, T_END)
    return recv_value() / ctx.world_size, stream.idle, took  # FILL when reduced


def _gpuccl_all_reduce(ctx, fence):
    comm, stream = _gpuccl(ctx)
    send = ctx.device.malloc(HUGE, np.float32)
    recv = ctx.device.malloc(HUGE, np.float32)
    send.write(np.full(HUGE, FILL, np.float32))
    _sleep_until(ctx, T0)
    comm.all_reduce(send, recv, HUGE, "sum", stream)
    return _fused(ctx, fence, stream, lambda: float(recv.read()[0]))


def _shmem(ctx, count):
    ctx.set_device(ctx.node_rank)
    shmem = ShmemContext(ctx)
    return shmem, shmem.malloc(count, np.float32)


def _shmem_put(ctx, fence):
    shmem, buf = _shmem(ctx, LARGE)
    shmem.barrier_all()
    if ctx.rank == 0:
        # Stream-ordered put completes locally at injection; the wire
        # delivery is still in flight when the fence lands.
        stream = ctx.device.create_stream()
        _sleep_until(ctx, T0)
        shmem.put_on_stream(buf, np.full(LARGE, FILL, np.float32), LARGE,
                            pe=1, stream=stream)
        stream.synchronize()
        shmem.quiet()  # must not hang on the fenced op
        retired = ctx.engine.now < T_END
        _sleep_until(ctx, T_END)
        return None, retired, None
    _survivor(ctx, fence)
    _sleep_until(ctx, T_END)
    return float(buf.local.raw[0]), True, None


def _shmem_get(ctx, fence):
    shmem, remote = _shmem(ctx, LARGE)
    remote.local.raw[:] = FILL
    shmem.barrier_all()
    if ctx.rank == 0:
        local = np.zeros(LARGE, np.float32)
        _sleep_until(ctx, T0)
        shmem.get(local, remote, LARGE, pe=1)  # must return, data or not
        retired = ctx.engine.now < T_END
        _sleep_until(ctx, T_END)
        return float(local[0]), retired, None
    _survivor(ctx, fence)
    _sleep_until(ctx, T_END)
    return None, True, None


def _shmem_allreduce(ctx, fence):
    shmem, send = _shmem(ctx, HUGE)
    recv = shmem.malloc(HUGE, np.float32)
    send.local.raw[:] = FILL
    shmem.barrier_all()
    stream = ctx.device.create_stream()
    _sleep_until(ctx, T0)
    shmem.allreduce(send, recv, HUGE, "sum", stream=stream)
    return _fused(ctx, fence, stream, lambda: float(recv.local.raw[0]))


# kind -> (program, fenced_deliveries_total backend label, retires on fence)
IN_FLIGHT_KINDS = {
    "mpi-eager": (_mpi_eager, "mpi", False),
    "mpi-rendezvous": (_mpi_rendezvous, "mpi", False),
    "mpi-rma-put": (_mpi_rma_put, "mpi", True),
    "gpuccl-sendrecv": (_gpuccl_sendrecv, "gpuccl", False),
    "gpushmem-put": (_shmem_put, "gpushmem", True),
    "gpushmem-get": (_shmem_get, "gpushmem", True),
    "gpuccl-all_reduce": (_gpuccl_all_reduce, "gpuccl", False),
    "gpushmem-allreduce": (_shmem_allreduce, "gpushmem", False),
}


@pytest.mark.parametrize("kind", IN_FLIGHT_KINDS)
def test_fenced_delivery_drops_payload_and_keeps_the_backend_contract(kind):
    program, label, retires = IN_FLIGHT_KINDS[kind]

    # Control: the identical program without the fence delivers and
    # completes, so the fenced half below is really the fence's doing.
    control = launch(program, 2, args=(None,))
    assert [v for v, _, _ in control if v is not None] in ([FILL], [FILL, FILL])
    assert all(ok for _, ok, _ in control)
    assert control.metrics.counter_total("fenced_deliveries_total") == 0

    took = control[0][2]
    fenced = launch(program, 2, args=(ON_THE_WIRE if took is None else took / 2,))
    # The payload never landed ...
    assert not any(v for v, _, _ in fenced)
    assert fenced.metrics.counter_total("fenced_deliveries_total") == 1
    assert fenced.metrics.counter("fenced_deliveries_total", backend=label) == 1
    # ... and each backend keeps its contract: a one-sided op still retires
    # (quiet()/flush()/the blocking get return — the outstanding-op counter
    # was retired, not leaked), while a two-sided receive, a GPUCCL op and a
    # fused collective stay pending: their waiters unwind through recovery.
    # Only the receiving side of a two-sided message is left pending.
    pending = [not ok for _, ok, _ in fenced]
    if retires:
        assert not any(pending)
    elif label == "mpi":
        assert pending == [False, True]
    else:
        assert all(pending)


def test_unfenced_put_still_delivers():
    # Control: the identical program without the fence delivers normally,
    # so the test above is really the fence's doing.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        buf = shmem.malloc(4, np.float32)
        shmem.barrier_all()
        if ctx.rank == 0:
            shmem.put(buf, np.full(4, 7.0, np.float32), 4, pe=1)
            shmem.quiet()
        ctx.engine.sleep(1e-3)
        val = float(buf.view_at(ctx.rank).raw[0])
        shmem.barrier_all()
        return val

    assert list(launch(main, 2))[1] == 7.0


# --------------------------------------------------------------------------- #
# Stream.abort
# --------------------------------------------------------------------------- #


def test_abort_discards_queue_and_inflight_action():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        device = ctx.device
        stream = device.create_stream()
        cell = {"inflight": False, "queued": False}
        inflight = TimedOp(ctx.engine, "inflight", lambda: 1e-4,
                           action=lambda: cell.__setitem__("inflight", True))
        queued = TimedOp(ctx.engine, "queued", lambda: 1e-4,
                         action=lambda: cell.__setitem__("queued", True))
        stream.enqueue(inflight)
        stream.enqueue(queued)
        stream.abort()
        stream.abort()  # idempotent
        # Waiters on discarded ops are released immediately...
        queued.done.wait()
        # ...and the in-flight op still *retires* (timing) minus its action.
        inflight.done.wait()
        assert ctx.engine.now >= 1e-4
        # No further work is accepted.
        with pytest.raises(GpuError, match="aborted"):
            stream.enqueue(TimedOp(ctx.engine, "late", lambda: 0.0))
        return (cell["inflight"], cell["queued"], stream.idle)

    assert list(launch(main, 1)) == [(False, False, True)]


def test_synchronize_does_not_hang_on_aborted_stream():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        stream = ctx.device.create_stream()
        stream.enqueue(TimedOp(ctx.engine, "a", lambda: 1e-4))
        stream.enqueue(TimedOp(ctx.engine, "b", lambda: 1e-4))
        stream.abort()
        stream.synchronize()  # released by abort, not by execution
        return ctx.engine.now

    # b never ran: sync returned via the abort release at the a-retire time.
    assert list(launch(main, 1))[0] < 2e-4


def test_healthy_stream_still_runs_actions():
    # Control for the abort guard added to TimedOp/ExternalOp.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        stream = ctx.device.create_stream()
        cell = {"ran": False}
        stream.enqueue(TimedOp(ctx.engine, "op", lambda: 1e-5,
                               action=lambda: cell.__setitem__("ran", True)))
        stream.synchronize()
        return cell["ran"]

    assert list(launch(main, 1)) == [True]
