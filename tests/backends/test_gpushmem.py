"""Tests for the simulated GPUSHMEM (NVSHMEM-like) backend."""

import numpy as np
import pytest

from repro.backends.gpushmem import BLOCK, SIGNAL_ADD, SIGNAL_SET, THREAD, WARP, ShmemContext
from repro.errors import GpushmemError
from repro.gpu import device_kernel
from repro.hardware import perlmutter
from repro.launcher import launch


def shmem_run(nranks, body, machine="perlmutter", **kwargs):
    """Run ``body(shmem, stream)`` on each PE."""

    def main(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        stream = ctx.device.create_stream()
        return body(shmem, stream)

    return launch(main, nranks, machine=machine, **kwargs)


def test_init_requires_device():
    def main(ctx):
        with pytest.raises(GpushmemError, match="selected GPU"):
            ShmemContext(ctx)
        return True

    assert all(launch(main, 1))


def test_not_available_on_lumi():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        with pytest.raises(GpushmemError, match="not available on lumi"):
            ShmemContext(ctx)
        return True

    assert all(launch(main, 1, machine="lumi"))


def test_symmetric_alloc_same_object_all_pes():
    def body(shmem, stream):
        buf = shmem.malloc(8)
        return buf.obj.index, buf.obj.count

    results = shmem_run(4, body)
    assert all(r == (0, 8) for r in results)


def test_asymmetric_alloc_detected():
    def body(shmem, stream):
        shmem.malloc(8 if shmem.my_pe == 0 else 16)

    with pytest.raises(GpushmemError, match="asymmetric"):
        shmem_run(2, body)


def test_free_requires_root_allocation():
    def body(shmem, stream):
        buf = shmem.malloc(8)
        with pytest.raises(GpushmemError, match="slice"):
            shmem.free(buf[2:4])
        shmem.free(buf)
        return True

    assert all(shmem_run(2, body))


def test_blocking_put_delivers_data():
    def body(shmem, stream):
        buf = shmem.malloc(4)
        src = np.full(4, float(shmem.my_pe + 1), np.float32)
        peer = (shmem.my_pe + 1) % shmem.n_pes
        shmem.put(buf, src, 4, peer)
        shmem.barrier_all()
        return buf.read().tolist()

    results = shmem_run(2, body)
    assert results[0] == [2.0] * 4  # written by PE 1
    assert results[1] == [1.0] * 4


def test_blocking_get_reads_remote():
    def body(shmem, stream):
        buf = shmem.malloc(4)
        buf.write(np.full(4, float(shmem.my_pe * 10), np.float32))
        shmem.barrier_all()
        out = np.zeros(4, np.float32)
        peer = (shmem.my_pe + 1) % shmem.n_pes
        shmem.get(out, buf, 4, peer)
        return out.tolist()

    results = shmem_run(2, body)
    assert results[0] == [10.0] * 4
    assert results[1] == [0.0] * 4


def test_put_with_signal_set_then_wait():
    def body(shmem, stream):
        data = shmem.malloc(4)
        sig = shmem.malloc(2, np.uint64)
        if shmem.my_pe == 0:
            shmem.put_signal(data, np.arange(4, dtype=np.float32), 4, sig, 7, 1, SIGNAL_SET)
            return None
        shmem.signal_wait_until(sig, "eq", 7)
        return data.read().tolist()

    results = shmem_run(2, body)
    assert results[1] == [0, 1, 2, 3]


def test_signal_arrives_after_payload():
    """Put-with-signal ordering: when the signal fires, data is visible."""

    def body(shmem, stream):
        data = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe == 0:
            for it in range(1, 6):
                shmem.put_signal(data, np.full(1, float(it), np.float32), 1, sig, it, 1)
            return None
        seen = []
        for it in range(1, 6):
            shmem.signal_wait_until(sig, "ge", it)
            seen.append(float(data.read()[0]))
        return seen

    results = shmem_run(2, body)
    assert results[1] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_signal_add_accumulates():
    def body(shmem, stream):
        data = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe != 0:
            shmem.put_signal(data, np.zeros(1, np.float32), 1, sig, 1, 0, SIGNAL_ADD)
            return None
        shmem.signal_wait_until(sig, "eq", 3)
        return int(sig.read()[0])

    results = shmem_run(4, body)
    assert results[0] == 3


def test_pointer_arithmetic_addresses_peer_correctly():
    """sync_arr + 1 style offsets must land at the same offset on the peer."""

    def body(shmem, stream):
        arr = shmem.malloc(4)
        if shmem.my_pe == 0:
            shmem.put(arr.offset_by(2, 1), np.full(1, 9.0, np.float32), 1, 1)
        shmem.barrier_all()
        return arr.read().tolist()

    results = shmem_run(2, body)
    assert results[1] == [0.0, 0.0, 9.0, 0.0]
    assert results[0] == [0.0] * 4


def test_put_on_stream_is_stream_ordered():
    def body(shmem, stream):
        data = shmem.malloc(2)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe == 0:
            host_t0 = shmem.engine.now
            shmem.put_signal_on_stream(data, np.full(2, 5.0, np.float32), 2, sig, 1, 1, stream)
            host_dt = shmem.engine.now - host_t0
            stream.synchronize()
            return host_dt
        shmem.signal_wait_until(sig, "eq", 1)
        return data.read().tolist()

    results = shmem_run(2, body)
    assert results[0] == 0.0  # enqueue is asynchronous for the host
    assert results[1] == [5.0, 5.0]


def test_signal_wait_until_on_stream_blocks_stream():
    def body(shmem, stream):
        data = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe == 0:
            shmem.engine.sleep(20e-6)
            shmem.put_signal(data, np.full(1, 3.0, np.float32), 1, sig, 1, 1)
            return None
        shmem.signal_wait_until_on_stream(sig, "eq", 1, stream)
        stream.synchronize()
        return shmem.engine.now, data.read()[0]

    results = shmem_run(2, body)
    t, val = results[1]
    assert t >= 20e-6
    assert val == 3.0


def test_notify_evaluates_only_the_notified_pes_predicates(monkeypatch):
    """Per-PE wake contract: a signal update on PE k evaluates PE k's wait
    predicates and nobody else's — O(1) per notify in a 16-PE ring where,
    at every update, every later PE is still waiting (host waits on even
    PEs, stream waits on odd ones)."""
    from repro.backends.gpushmem import heap

    calls = {"predicate": 0}
    per_notify = []
    ge = heap.CMP["ge"]

    def counting_ge(a, b):
        calls["predicate"] += 1
        return ge(a, b)

    notify = heap.SymObject.notify

    def counting_notify(self, pe):
        before = calls["predicate"]
        notify(self, pe)
        per_notify.append(calls["predicate"] - before)

    monkeypatch.setitem(heap.CMP, "ge", counting_ge)
    monkeypatch.setattr(heap.SymObject, "notify", counting_notify)

    def body(shmem, stream):
        data = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        me, n = shmem.my_pe, shmem.n_pes
        if me > 0:
            if me % 2:
                shmem.signal_wait_until_on_stream(sig, "ge", 1, stream)
                stream.synchronize()
            else:
                shmem.signal_wait_until(sig, "ge", 1)
        if me + 1 < n:
            shmem.put_signal(data, np.full(1, float(me), np.float32), 1, sig, 1, me + 1)
        return float(data.read()[0])

    results = shmem_run(16, body)
    assert results[1:] == [float(pe) for pe in range(15)]
    assert len(per_notify) == 2 * 15  # payload landing + signal update, per hop
    assert max(per_notify) == 1  # the waiter on the notified PE; never the other 14
    assert sum(per_notify) == 15


def test_quiet_completes_nbi_puts():
    @device_kernel()
    def sender(ctx, dest, src, peer):
        shmem = ctx.shmem
        shmem.put_nbi(dest, src, 4, peer)
        shmem.quiet()

    def body(shmem, stream):
        dest = shmem.malloc(4)
        if shmem.my_pe == 0:
            src = shmem.device.malloc(4, np.float32)
            src.write(np.full(4, 8.0, np.float32))
            shmem.collective_launch(sender, 1, 64, (dest, src, 1), stream)
            stream.synchronize()
        shmem.barrier_all()
        return dest.read().tolist()

    results = shmem_run(2, body)
    assert results[1] == [8.0] * 4


def test_device_put_signal_and_wait_inside_kernels():
    """The paper's Listing 3 pattern: halo exchange fully inside a kernel."""

    @device_kernel()
    def exchange(ctx, data, sig, out):
        shmem = ctx.shmem
        peer = (shmem.my_pe + 1) % shmem.n_pes
        src = np.full(2, float(shmem.my_pe + 1), np.float32)
        shmem.put_signal_nbi(data, src, 2, sig, 1, peer)
        shmem.signal_wait_until(sig, "eq", 1)
        out.append(data.read().tolist())

    def body(shmem, stream):
        data = shmem.malloc(2)
        sig = shmem.malloc(1, np.uint64)
        out = []
        shmem.collective_launch(exchange, 2, 128, (data, sig, out), stream)
        stream.synchronize()
        return out[0]

    results = shmem_run(2, body)
    assert results[0] == [2.0, 2.0]
    assert results[1] == [1.0, 1.0]


def test_collective_launch_rejects_plain_kernels():
    from repro.gpu import kernel

    @kernel()
    def plain(ctx):
        pass

    def body(shmem, stream):
        with pytest.raises(GpushmemError, match="device_kernel"):
            shmem.collective_launch(plain, 1, 64, (), stream)
        return True

    assert all(shmem_run(1, body))


def test_collective_launch_enforces_coop_limit():
    @device_kernel()
    def k(ctx):
        pass

    def body(shmem, stream):
        limit = shmem.device.model.max_coop_blocks
        from repro.errors import GpuError

        with pytest.raises(GpuError, match="cooperative"):
            shmem.collective_launch(k, limit + 1, 64, (), stream)
        return True

    assert all(shmem_run(1, body))


def test_thread_granularity_slower_than_block():
    @device_kernel()
    def putter(ctx, dest, n, group, out):
        shmem = ctx.shmem
        src = np.zeros(n, np.float32)
        t0 = shmem.engine.now
        shmem.put(dest, src, n, 1, group=group)
        out.append(shmem.engine.now - t0)

    def body_of(group):
        def body(shmem, stream):
            n = 1 << 16
            dest = shmem.malloc(n)
            out = []
            if shmem.my_pe == 0:
                shmem.collective_launch(putter, 1, 64, (dest, n, group, out), stream)
                stream.synchronize()
            shmem.barrier_all()
            return out[0] if out else None

        return body

    t_block = shmem_run(2, body_of(BLOCK))[0]
    t_warp = shmem_run(2, body_of(WARP))[0]
    t_thread = shmem_run(2, body_of(THREAD))[0]
    assert t_block < t_warp < t_thread


def test_device_internode_pays_proxy_latency():
    @device_kernel()
    def putter(ctx, dest, sig, peer):
        ctx.shmem.put_signal_nbi(dest, np.zeros(1, np.float32), 1, sig, 1, peer)

    def body(shmem, stream):
        dest = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe == 0:
            shmem.collective_launch(putter, 1, 64, (dest, sig, 1), stream)
            stream.synchronize()
            return None
        shmem.signal_wait_until(sig, "eq", 1)
        return shmem.engine.now

    # Intra-node PEs 0,1.
    t_intra = shmem_run(2, body)[1]
    # Inter-node: 2 nodes, 8 ranks; compare PE0 -> PE4 via a sub-run.
    def body_inter(shmem, stream):
        dest = shmem.malloc(1)
        sig = shmem.malloc(1, np.uint64)
        if shmem.my_pe == 0:
            shmem.collective_launch(putter, 1, 64, (dest, sig, 4), stream)
            stream.synchronize()
            return None
        if shmem.my_pe == 4:
            shmem.signal_wait_until(sig, "eq", 1)
            return shmem.engine.now
        return None

    t_inter = shmem_run(8, body_inter)[4]
    m = perlmutter()
    assert t_inter > t_intra
    assert t_inter >= m.gpushmem.proxy_overhead


def test_barrier_all_synchronizes():
    def body(shmem, stream):
        shmem.engine.sleep(shmem.my_pe * 1e-5)
        shmem.barrier_all()
        return shmem.engine.now

    results = shmem_run(4, body)
    assert all(t >= 3e-5 for t in results)


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_allreduce(nranks):
    def body(shmem, stream):
        send = np.full(3, float(shmem.my_pe + 1), np.float32)
        recv = np.zeros(3, np.float32)
        shmem.allreduce(send, recv, 3, "sum")
        return recv.tolist()

    results = shmem_run(nranks, body)
    expected = [float(nranks * (nranks + 1) / 2)] * 3
    assert all(r == expected for r in results)


def test_broadcast_from_root():
    def body(shmem, stream):
        buf = np.zeros(4, np.float32)
        if shmem.my_pe == 2:
            buf[:] = [1, 2, 3, 4]
        shmem.broadcast(buf, buf, 4, root=2)
        return buf.tolist()

    results = shmem_run(4, body)
    assert all(r == [1, 2, 3, 4] for r in results)


def test_reduce_to_root():
    def body(shmem, stream):
        send = np.full(2, float(shmem.my_pe), np.float32)
        recv = np.zeros(2, np.float32)
        shmem.reduce(send, recv, 2, "max", root=0)
        return recv.tolist()

    results = shmem_run(4, body)
    assert results[0] == [3.0, 3.0]
    assert results[1] == [0.0, 0.0]


def test_fcollect_allgather():
    def body(shmem, stream):
        send = np.full(2, float(shmem.my_pe), np.float32)
        recv = np.zeros(8, np.float32)
        shmem.fcollect(send, recv, 2)
        return recv.tolist()

    results = shmem_run(4, body)
    assert all(r == [0, 0, 1, 1, 2, 2, 3, 3] for r in results)


def test_alltoall():
    def body(shmem, stream):
        p = shmem.n_pes
        send = np.array([shmem.my_pe * 10.0 + c for c in range(p)], np.float32)
        recv = np.zeros(p, np.float32)
        shmem.alltoall(send, recv, 1)
        return recv.tolist()

    results = shmem_run(4, body)
    for r, got in enumerate(results):
        assert got == [c * 10.0 + r for c in range(4)]


def test_collectives_on_stream():
    def body(shmem, stream):
        send = shmem.malloc(2)
        send.write(np.full(2, float(shmem.my_pe + 1), np.float32))
        recv = shmem.malloc(2)
        shmem.allreduce(send, recv, 2, "sum", stream=stream)
        stream.synchronize()
        return recv.read().tolist()

    results = shmem_run(4, body)
    assert all(r == [10.0, 10.0] for r in results)


def test_team_split():
    def body(shmem, stream):
        team = shmem.team_world.split(color=shmem.my_pe % 2)
        send = np.full(1, float(shmem.my_pe), np.float32)
        recv = np.zeros(1, np.float32)
        shmem.allreduce(send, recv, 1, "sum", team=team)
        return team.my_pe, team.size, float(recv[0])

    results = shmem_run(4, body)
    assert results[0] == (0, 2, 2.0)
    assert results[1] == (0, 2, 4.0)
    assert results[2] == (1, 2, 2.0)
    assert results[3] == (1, 2, 4.0)


def test_a_reversed_slice_is_empty():
    """As numpy and DeviceBuffer have it: no negative count or byte size."""
    def body(shmem, stream):
        buf = shmem.malloc(16)
        rev, back = buf[5:2], buf.offset_by(6, -3)
        return (rev.offset, rev.count, rev.nbytes), (back.offset, back.count, back.nbytes)

    assert shmem_run(1, body)[0] == ((5, 0, 0), (6, 0, 0))


def test_slices_are_interned_for_the_job_and_dropped_at_close():
    def body(shmem, stream):
        buf = shmem.malloc(16)
        view = buf.offset_by(4, 8)
        assert buf.offset_by(4, 8) is view and buf[4:12] is view
        assert view[2:3] is buf.offset_by(6, 1) and buf.offset_by(0) is buf
        assert buf[5:2] is buf[5:5]  # the key holds the clamped length
        assert buf.local.offset(4, 8) is buf.local[4:12] is view.local
        assert buf.obj._slices and shmem.device._views
        return buf.obj, shmem.device

    for obj, device in shmem_run(2, body):
        # Job.close(): no symmetric object or allocation holds a view.
        assert obj._slices == {} and device._views == {}


def test_put_overflow_detected():
    def body(shmem, stream):
        buf = shmem.malloc(2)
        with pytest.raises(GpushmemError, match="put of 4"):
            shmem.put(buf, np.zeros(4, np.float32), 4, 0)
        return True

    assert all(shmem_run(1, body))


def test_invalid_pe_rejected():
    def body(shmem, stream):
        buf = shmem.malloc(1)
        with pytest.raises(GpushmemError, match="out of range"):
            shmem.put(buf, np.zeros(1, np.float32), 1, 99)
        return True

    assert all(shmem_run(1, body))


@pytest.mark.parametrize("api", ["host", "stream", "device"])
@pytest.mark.parametrize("op, window, why", [
    ("bogus", 1, "unknown signal op 'bogus'"),
    (SIGNAL_SET, 0, "at least one element"),
])
def test_a_signal_that_cannot_apply_is_refused_before_the_payload_moves(
        api, op, window, why):
    """The signal op and the signal window are checked where the
    put-with-signal is called — on-stream, at enqueue time — not at
    delivery, after the payload has landed: the destination stays
    untouched and the signal word unwritten."""

    def body(shmem, stream):
        src, dst = shmem.malloc(4), shmem.malloc(4)
        sig = shmem.malloc(1, np.uint64)
        word = sig if window else sig.offset_by(1, 0)
        src.write(np.full(4, 7.0, np.float32))
        shmem.barrier_all()
        peer, errors = 1 - shmem.my_pe, []
        if api == "host":
            with pytest.raises(GpushmemError, match=why):
                shmem.put_signal(dst, src, 4, word, 1, peer, op=op)
        elif api == "stream":
            with pytest.raises(GpushmemError, match=why):
                shmem.put_signal_on_stream(dst, src, 4, word, 1, peer, stream, op=op)
        else:
            @device_kernel(name="bad_signal")
            def kernel(ctx):
                try:
                    ctx.shmem.put_signal_nbi(dst, src, 4, word, 1, peer, op=op)
                except GpushmemError as exc:
                    errors.append(str(exc))

            shmem.collective_launch(kernel, 1, 32, stream=stream)
        stream.synchronize()
        if api == "device":
            assert len(errors) == 1 and why in errors[0]
        shmem.quiet()
        shmem.barrier_all()
        return dst.read().tolist(), int(sig.read()[0])

    assert shmem_run(2, body) == [([0.0] * 4, 0)] * 2
