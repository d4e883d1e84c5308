"""Tests for simulated MPI point-to-point semantics and protocols."""

import weakref

import numpy as np
import pytest

from repro.backends.common import InFlight
from repro.backends.mpi import ANY_SOURCE, ANY_TAG, MpiContext, Request, waitall
from repro.errors import DeadlockError, MpiError
from repro.hardware import perlmutter
from repro.launcher import launch
from tests.backends.conftest import mpi_run

EAGER = perlmutter().mpi.eager_threshold  # bytes


def test_blocking_send_recv_small_message(run2):
    def body(mpi, comm):
        buf = np.zeros(4, np.float32)
        if comm.rank == 0:
            buf[:] = [1, 2, 3, 4]
            comm.send(buf, 4, dst=1)
            return None
        comm.recv(buf, 4, src=0)
        return buf.tolist()

    results = run2(body)
    assert results[1] == [1, 2, 3, 4]


def test_recv_takes_at_least_wire_latency(run2):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            comm.send(buf, 1, dst=1)
        else:
            comm.recv(buf, 1, src=0)
        return mpi.engine.now

    results = run2(body)
    m = perlmutter()
    assert results[1] >= m.intra_latency
    assert results[1] < 20e-6


def test_eager_send_completes_before_recv_posted(run2):
    """Both ranks send small first, then recv: legal with eager protocol."""

    def body(mpi, comm):
        out = np.zeros(2, np.float32)
        mine = np.full(2, float(comm.rank + 1), np.float32)
        peer = 1 - comm.rank
        comm.send(mine, 2, dst=peer)
        comm.recv(out, 2, src=peer)
        return out.tolist()

    results = run2(body)
    assert results[0] == [2.0, 2.0]
    assert results[1] == [1.0, 1.0]


def test_rendezvous_head_to_head_blocking_sends_deadlock():
    """Large blocking sends on both sides must deadlock (rendezvous)."""
    n = EAGER  # floats: 4x over the byte threshold

    def body(ctx):
        ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        comm = mpi.comm_world
        big = np.zeros(n, np.float32)
        peer = 1 - comm.rank
        comm.send(big, n, dst=peer)
        comm.recv(big, n, src=peer)

    with pytest.raises(DeadlockError):
        launch(body, 2)


def test_rendezvous_transfers_data(run2):
    n = EAGER  # elements; 4 bytes each -> rendezvous path

    def body(mpi, comm):
        buf = np.zeros(n, np.float32)
        if comm.rank == 0:
            buf[:] = np.arange(n, dtype=np.float32)
            comm.send(buf, n, dst=1)
            return None
        comm.recv(buf, n, src=0)
        return float(buf.sum())

    results = run2(body)
    assert results[1] == pytest.approx(float(np.arange(n).sum()))


def test_rendezvous_sender_waits_for_receiver(run2):
    """Sender of a large message cannot finish before the recv is posted."""
    n = EAGER
    recv_post_delay = 50e-6

    def body(mpi, comm):
        buf = np.zeros(n, np.float32)
        if comm.rank == 0:
            comm.send(buf, n, dst=1)
            return mpi.engine.now
        mpi.engine.sleep(recv_post_delay)
        comm.recv(buf, n, src=0)
        return mpi.engine.now

    t_send_done, t_recv_done = run2(body)
    assert t_send_done >= recv_post_delay
    assert t_recv_done >= t_send_done


def test_eager_sender_not_delayed_by_late_receiver(run2):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            comm.send(buf, 1, dst=1)
            return mpi.engine.now
        mpi.engine.sleep(100e-6)
        comm.recv(buf, 1, src=0)
        return mpi.engine.now

    t_send_done, _ = run2(body)
    assert t_send_done < 10e-6


def test_isend_irecv_waitall(run2):
    def body(mpi, comm):
        peer = 1 - comm.rank
        out = np.zeros(3, np.float32)
        mine = np.full(3, float(10 + comm.rank), np.float32)
        rreq = comm.irecv(out, 3, src=peer)
        sreq = comm.isend(mine, 3, dst=peer)
        waitall([rreq, sreq])
        return out.tolist()

    results = run2(body)
    assert results[0] == [11.0] * 3
    assert results[1] == [10.0] * 3


def test_request_test_transitions(run2):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            mpi.engine.sleep(5e-6)
            comm.send(buf, 1, dst=1)
            return None
        req = comm.irecv(buf, 1, src=0)
        before = req.test()
        req.wait()
        return before, req.test()

    results = run2(body)
    assert results[1] == (False, True)


def test_isend_and_irecv_return_requests(run2):
    """A message's records are the requests its caller waits on; a request
    still builds on its own."""
    def body(mpi, comm):
        peer = 1 - comm.rank
        buf = np.zeros(1, np.float32)
        reqs = [comm.irecv(buf, 1, src=peer), comm.isend(buf, 1, dst=peer)]
        waitall(reqs)
        solo = Request(mpi.engine, "solo")
        mpi.engine.schedule(1e-6, solo.complete)
        solo.wait()
        return [isinstance(r, Request) and r.done for r in reqs + [solo]]

    assert run2(body) == [[True] * 3] * 2


def test_a_receive_that_never_matches_names_the_transfer_in_the_deadlock_report():
    def body(ctx):
        ctx.set_device(ctx.node_rank)
        comm = MpiContext(ctx).comm_world
        if comm.rank == 1:
            comm.recv(np.zeros(1, np.float32), 1, src=0, tag=0)

    with pytest.raises(DeadlockError) as excinfo:
        launch(body, 2)
    assert "rank1: blocked on event:req:recv[0->1 tag=0]" in excinfo.value.report


@pytest.mark.parametrize("count", [4, EAGER], ids=["eager", "rendezvous"])
def test_a_request_held_after_waitall_does_not_keep_the_payload(monkeypatch, run2, count):
    """A request outlives its wait in the caller's hands; the snapshot of
    the payload it sent must not: once landed, the copy is freed."""
    copies = []
    snapshot = InFlight.snapshot

    def keep_a_weakref(flight, *args, **kwargs):
        out = snapshot(flight, *args, **kwargs)
        copies.append(weakref.ref(flight.data))
        return out

    monkeypatch.setattr(InFlight, "snapshot", keep_a_weakref)

    def body(mpi, comm):
        buf, ack = np.ones(count, np.float32), np.zeros(1, np.float32)
        if comm.rank == 1:
            comm.recv(buf, count, src=0)
            comm.send(ack, 1, dst=0)
            return None
        req = comm.isend(buf, count, dst=1)
        waitall([req])
        comm.recv(ack, 1, src=1)  # rank 1 has its payload
        return req.done, [copy() is None for copy in copies]

    assert run2(body)[0] == (True, [True, True])


def test_sendrecv_ring_shift(run4):
    def body(mpi, comm):
        r, p = comm.rank, comm.size
        send = np.full(1, float(r), np.float32)
        recv = np.zeros(1, np.float32)
        comm.sendrecv(send, 1, (r + 1) % p, recv, 1, (r - 1) % p)
        return recv[0]

    results = run4(body)
    assert results == [3.0, 0.0, 1.0, 2.0]


def test_message_ordering_fifo_per_tag(run2):
    def body(mpi, comm):
        if comm.rank == 0:
            for v in (1.0, 2.0, 3.0):
                comm.send(np.full(1, v, np.float32), 1, dst=1, tag=7)
            return None
        got = []
        buf = np.zeros(1, np.float32)
        for _ in range(3):
            comm.recv(buf, 1, src=0, tag=7)
            got.append(float(buf[0]))
        return got

    results = run2(body)
    assert results[1] == [1.0, 2.0, 3.0]


def test_tag_selectivity(run2):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            comm.send(np.full(1, 5.0, np.float32), 1, dst=1, tag=5)
            comm.send(np.full(1, 9.0, np.float32), 1, dst=1, tag=9)
            return None
        comm.recv(buf, 1, src=0, tag=9)
        first = float(buf[0])
        comm.recv(buf, 1, src=0, tag=5)
        return first, float(buf[0])

    results = run2(body)
    assert results[1] == (9.0, 5.0)


def test_any_source_any_tag(run4):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            got = set()
            for _ in range(3):
                comm.recv(buf, 1, src=ANY_SOURCE, tag=ANY_TAG)
                got.add(float(buf[0]))
            return sorted(got)
        comm.send(np.full(1, float(comm.rank), np.float32), 1, dst=0, tag=comm.rank)
        return None

    results = mpi_run(4, body)
    assert results[0] == [1.0, 2.0, 3.0]


def test_truncation_error(run2):
    def body(mpi, comm):
        if comm.rank == 0:
            comm.send(np.zeros(8, np.float32), 8, dst=1)
        else:
            comm.recv(np.zeros(2, np.float32), 2, src=0)

    with pytest.raises(MpiError, match="truncation"):
        mpi_run(2, body)


def test_invalid_peer_rejected(run2):
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            with pytest.raises(MpiError, match="out of range"):
                comm.send(buf, 1, dst=5)
        return True

    assert all(run2(body))


def test_call_after_finalize_rejected():
    def body(ctx):
        ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        mpi.finalize()
        with pytest.raises(MpiError, match="after finalize"):
            mpi.comm_world.send(np.zeros(1, np.float32), 1, dst=0)
        return True

    assert all(launch(body, 1))


def test_inter_node_send_uses_network_latency():
    def body(mpi, comm):
        buf = np.zeros(1, np.float32)
        if comm.rank == 0:
            comm.send(buf, 1, dst=1)
        else:
            comm.recv(buf, 1, src=0)
        return mpi.engine.now

    # Ranks 0 and 4 (different nodes on Perlmutter): route over NICs.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        comm = mpi.comm_world.split(color=0 if ctx.rank in (0, 4) else 1)
        buf = np.zeros(1, np.float32)
        t0 = None
        if ctx.rank == 0:
            comm.send(buf, 1, dst=1)
        elif ctx.rank == 4:
            comm.recv(buf, 1, src=0)
            t0 = mpi.engine.now
        mpi.finalize()
        return t0

    results = launch(main, 8)
    m = perlmutter()
    inter_latency = 2 * m.nic_latency + m.fabric_latency
    assert results[4] >= inter_latency


def test_a_rank_that_selects_another_gpu_sends_over_the_new_path():
    """The matcher fixes a pair's path on its first message; a rank that
    then selects another GPU (MPI_Init before cudaSetDevice, as Uniconn's
    Environment does) must not keep the old one. Both ranks first share
    GPU 0 — a loopback path at HBM speed — then move to their own GPUs,
    joined by NVLink: the timed exchange then costs what it costs on
    NVLink, not on the loopback."""
    n = 1 << 18  # 1 MiB of float32: the wire time dominates

    def main(ctx, first, then):
        ctx.set_device(first)
        mpi = MpiContext(ctx)
        comm = mpi.comm_world
        buf = np.zeros(n, np.float32)
        peer = 1 - comm.rank
        comm.sendrecv(buf, n, peer, buf, n, peer)  # the pair records form
        ctx.set_device(ctx.rank if then == "own" else 0)
        comm.barrier()
        start = mpi.engine.now
        comm.sendrecv(buf, n, peer, buf, n, peer, tag=1)
        elapsed = mpi.engine.now - start
        mpi.finalize()
        return elapsed

    stay = launch(lambda ctx: main(ctx, 0, "shared"), 2)
    moved = launch(lambda ctx: main(ctx, 0, "own"), 2)
    own = launch(lambda ctx: main(ctx, ctx.rank, "own"), 2)
    assert min(moved) > 2 * max(stay)
    assert moved == pytest.approx(own, rel=0.05)
