"""Unit tests for streams, events, and kernel launches on virtual time."""

import numpy as np
import pytest

from repro.errors import GpuError
from repro.gpu import Device, GpuEvent, KernelSpec, TimedOp, device_kernel, elapsed, kernel
from repro.hardware import Cluster, KernelCost, perlmutter
from repro.sim import Engine


def run_on_device(body):
    """Run ``body(engine, device)`` inside a simulated task."""
    engine = Engine()
    device = Device(engine, Cluster(perlmutter(), 1), gpu_id=0)
    out = {}

    def task():
        out["result"] = body(engine, device)

    engine.spawn(task, name="host")
    engine.run()
    return out["result"]


def test_stream_ops_execute_in_fifo_order():
    def body(engine, device):
        stream = device.create_stream()
        log = []
        stream.enqueue(TimedOp(engine, "a", lambda: 2e-6, lambda: log.append(("a", engine.now))))
        stream.enqueue(TimedOp(engine, "b", lambda: 1e-6, lambda: log.append(("b", engine.now))))
        stream.synchronize()
        return log, engine.now

    log, now = run_on_device(body)
    assert log == [("a", 2e-6), ("b", pytest.approx(3e-6))]
    assert now == pytest.approx(3e-6)


def test_enqueue_does_not_advance_time():
    def body(engine, device):
        stream = device.create_stream()
        stream.enqueue(TimedOp(engine, "slow", lambda: 1.0))
        return engine.now

    assert run_on_device(body) == 0.0


def test_synchronize_on_empty_stream_is_noop():
    def body(engine, device):
        device.default_stream.synchronize()
        return engine.now

    assert run_on_device(body) == 0.0


def test_two_streams_run_concurrently():
    def body(engine, device):
        s1, s2 = device.create_stream(), device.create_stream()
        s1.enqueue(TimedOp(engine, "a", lambda: 3e-6))
        s2.enqueue(TimedOp(engine, "b", lambda: 3e-6))
        s1.synchronize()
        s2.synchronize()
        return engine.now

    # Concurrent, not serialized: total is 3us, not 6us.
    assert run_on_device(body) == pytest.approx(3e-6)


def test_stream_query(monkeypatch=None):
    def body(engine, device):
        stream = device.create_stream()
        states = [stream.query()]
        stream.enqueue(TimedOp(engine, "op", lambda: 1e-6))
        states.append(stream.query())
        stream.synchronize()
        states.append(stream.query())
        return states

    assert run_on_device(body) == [True, False, True]


def test_event_timing_matches_paper_methodology():
    def body(engine, device):
        stream = device.create_stream()
        start, end = GpuEvent(device, "start"), GpuEvent(device, "end")
        start.record(stream)
        stream.enqueue(TimedOp(engine, "work", lambda: 5e-6))
        end.record(stream)
        end.synchronize()
        return elapsed(start, end)

    assert run_on_device(body) == pytest.approx(5e-6)


def test_event_before_record_raises():
    def body(engine, device):
        ev = GpuEvent(device)
        with pytest.raises(GpuError, match="before record"):
            ev.synchronize()
        with pytest.raises(GpuError, match="not completed"):
            _ = ev.time
        return True

    assert run_on_device(body)


def test_compute_kernel_runs_at_completion_time():
    stencil = kernel(cost=KernelCost(bytes_moved=1.555e12 * 1e-6))  # 1us of HBM

    @stencil
    def fill(ctx, buf, value):
        buf.fill(value)

    def body(engine, device):
        buf = device.malloc(4)
        device.launch(fill, grid=1, block=128, args=(buf, 3.0))
        host_view_before_sync = buf.read().copy()
        device.synchronize()
        return host_view_before_sync, buf.read(), engine.now

    before, after, now = run_on_device(body)
    # Asynchrony: data is not there until the stream is synchronized.
    assert np.all(before == 0.0)
    assert np.all(after == 3.0)
    assert now == pytest.approx(perlmutter().gpu.launch_overhead + 1e-6)


def test_kernel_cost_callable_evaluated_at_launch():
    dyn = kernel(cost=lambda ctx, buf: KernelCost(bytes_moved=buf.nbytes))

    @dyn
    def touch(ctx, buf):
        pass

    def body(engine, device):
        buf = device.malloc(1024, np.float32)
        device.launch(touch, grid=4, block=256, args=(buf,))
        device.synchronize()
        return engine.now

    expected = perlmutter().gpu.launch_overhead + 4096 / perlmutter().gpu.mem_bandwidth
    assert run_on_device(body) == pytest.approx(expected)


def test_device_kernel_blocks_with_compute():
    @device_kernel()
    def resident(ctx, out):
        ctx.compute(KernelCost(bytes_moved=1.555e12 * 2e-6))  # 2us
        out.append(ctx.device.engine.now)

    def body(engine, device):
        out = []
        device.launch(resident, grid=2, block=64, args=(out,))
        device.synchronize()
        return out, engine.now

    out, now = run_on_device(body)
    assert out[0] == pytest.approx(perlmutter().gpu.launch_overhead + 2e-6)
    assert now == pytest.approx(out[0])


def test_compute_only_kernel_cannot_block():
    @kernel()
    def bad(ctx):
        ctx.compute(KernelCost(bytes_moved=1.0))

    def body(engine, device):
        device.launch(bad, grid=1, block=32)
        device.synchronize()

    # The kernel body runs inside a timer callback, which acts for no task:
    # its error fails the run (Engine.run re-raises it), not the host task
    # that happened to be blocked in synchronize() meanwhile.
    with pytest.raises(RuntimeError, match="device-communication kernel"):
        run_on_device(body)


def test_cooperative_launch_limit():
    @device_kernel()
    def resident(ctx):
        pass

    def body(engine, device):
        limit = device.model.max_coop_blocks
        with pytest.raises(GpuError, match="cooperative launch"):
            device.launch(resident, grid=limit + 1, block=64, cooperative=True)
        device.launch(resident, grid=limit, block=64, cooperative=True)
        device.synchronize()
        return True

    assert run_on_device(body)


def test_invalid_block_size():
    @kernel()
    def k(ctx):
        pass

    def body(engine, device):
        with pytest.raises(GpuError, match="block size"):
            device.launch(k, grid=1, block=2048)
        return True

    assert run_on_device(body)


def test_memcpy_h2d_d2h_roundtrip():
    def body(engine, device):
        buf = device.malloc(8)
        src = np.arange(8, dtype=np.float32)
        device.memcpy_h2d(buf, src)
        dst = np.zeros(8, dtype=np.float32)
        device.memcpy_d2h(dst, buf)
        device.synchronize()
        return dst, engine.now

    dst, now = run_on_device(body)
    np.testing.assert_array_equal(dst, np.arange(8, dtype=np.float32))
    gpu = perlmutter().gpu
    expected = 2 * (gpu.memcpy_overhead + 32 / gpu.pcie_bandwidth)
    assert now == pytest.approx(expected)
