"""Happens-before race & memory sanitizer (repro.sanitize).

Three families:

1. Buffer-bug regressions: the bounds/cast checks the sanitizer bring-up
   flushed out of :class:`DeviceBuffer` and :class:`SymBuffer`.
2. Seeded races: programs with one deliberately-missing synchronization
   edge; the sanitizer must catch each and attribute *both* accesses, and
   report the same list whether host charges are deferred (the default)
   or slept one by one (the eager twin).
3. Clean runs: the shipped apps on every backend report zero races.
"""

import json

import numpy as np
import pytest

from repro.apps.cg import CgConfig
from repro.apps.cg import launch_variant as launch_cg
from repro.apps.jacobi import JacobiConfig
from repro.apps.jacobi import launch_variant as launch_jacobi
from repro.apps.osu import LATENCY_VARIANTS, OsuConfig
from repro.backends.gpushmem import ShmemContext
from repro.backends.mpi import MpiContext
from repro.errors import GpuError, GpushmemError
from repro.gpu import dim3
from repro.gpu.kernel import kernel
from repro.hardware.gpu import KernelCost
from repro.launcher import launch
from repro.sanitize import RaceReport, Sanitizer, resolve_mode
from repro.sim import Engine, Tracer, to_chrome_trace
from tests.core.test_coordinator import run_digest
from tests.sim.test_fastpath import INERT_PLAN


# --------------------------------------------------------------------- #
# Mode resolution.
# --------------------------------------------------------------------- #


def test_resolve_mode():
    for off in (None, False):
        assert resolve_mode(off) is None
    for on in (True, "race"):
        assert resolve_mode(on) == "race"
    # One spelling each: the retired ones are plain errors, not "off".
    for retired in ("off", "none", "0", "", "on", "1", "yes", "RACE", 0, 1,
                    "verbose"):
        with pytest.raises(ValueError):
            resolve_mode(retired)


# --------------------------------------------------------------------- #
# Buffer-bug regressions (plain GpuError behavior, sanitizer off).
# --------------------------------------------------------------------- #


def _expect_gpu_error(body, match):
    with pytest.raises(GpuError, match=match):
        launch(body, 1)


def test_read_past_end_raises():
    def body(ctx):
        buf = ctx.set_device(0).malloc(8, np.float32)
        buf.read(9)

    _expect_gpu_error(body, r"read of 9 elements from buffer of 8")


def test_write_past_end_raises():
    def body(ctx):
        buf = ctx.set_device(0).malloc(4, np.float32)
        buf.write(np.zeros(8, np.float32))

    _expect_gpu_error(body, r"write of 8 elements into buffer of 4")


def test_write_count_beyond_source_raises():
    def body(ctx):
        buf = ctx.set_device(0).malloc(8, np.float32)
        buf.write(np.zeros(2, np.float32), count=4)

    _expect_gpu_error(body, r"write of 4 elements from source of 2")


def test_write_lossy_cast_rejected():
    def body(ctx):
        buf = ctx.set_device(0).malloc(4, np.int32)
        buf.write(np.array([1.5, 2.5, 3.5, 4.5]))

    _expect_gpu_error(body, r"lossy cast")


def test_symbuffer_write_lossy_cast_rejected():
    def body(ctx):
        ctx.set_device(0)
        shmem = ShmemContext(ctx)
        sym = shmem.malloc(4, np.int64)
        sym.write(np.array([1.5, 2.5, 3.5, 4.5]))

    _expect_gpu_error(body, r"lossy cast")


def test_symbuffer_write_safe_cast_still_allowed():
    def body(ctx):
        ctx.set_device(0)
        shmem = ShmemContext(ctx)
        sym = shmem.malloc(4, np.float64)
        sym.write(np.arange(4, dtype=np.float32))  # widening is fine
        return sym.read().tolist()

    assert launch(body, 1)[0] == [0.0, 1.0, 2.0, 3.0]


# --------------------------------------------------------------------- #
# Seeded races: each program omits exactly one synchronization edge.
# --------------------------------------------------------------------- #


@kernel(name="san_fill", cost=lambda ctx, buf: KernelCost(bytes_moved=8.0 * buf.size))
def k_fill(ctx, buf):
    buf.data[:] = 1.0


def _ops(report):
    """(first op, second op, kind) triples for assertion convenience."""
    return [((r.first or {}).get("op"), r.second["op"], r.kind) for r in report.races]


def _sanitized(body, nranks):
    """``launch(body, nranks, sanitize="race")``, held to its eager twin
    (host charges deferred by default, slept one by one under a fault plan
    that never fires): the findings are the same list, and the run ends
    the same way. Returns the report, or raises what the run raised."""
    outcomes = []
    for plan in (None, INERT_PLAN):
        try:
            outcomes.append((launch(body, nranks, sanitize="race", fault_plan=plan), None))
        except Exception as exc:  # noqa: BLE001 - compared by type below
            outcomes.append((exc.run_report, exc))
    (report, error), (twin, twin_error) = outcomes
    assert [r.as_dict() for r in report.races] == [r.as_dict() for r in twin.races]
    assert type(error) is type(twin_error)
    if error is not None:
        raise error
    return report


def test_missing_stream_sync_is_a_race():
    """Kernel writes on a stream; the host reads without synchronizing."""

    def body(ctx):
        device = ctx.set_device(0)
        stream = device.create_stream()
        buf = device.malloc(32, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(buf,), stream=stream)
        buf.read()  # BUG: no stream.synchronize()

    report = _sanitized(body, 1)
    hits = [r for r in report.races
            if r.kind == "race" and r.second["op"] == "san_fill"
            and r.first["kind"] == "r"]
    assert hits, f"kernel/host race not caught: {_ops(report)}"
    assert hits[0].second["stream"] is not None  # attributed to the stream op
    assert report.stats["races"] == [r.as_dict() for r in report.races]


def test_stream_sync_fixes_the_race():
    def body(ctx):
        device = ctx.set_device(0)
        stream = device.create_stream()
        buf = device.malloc(32, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(buf,), stream=stream)
        stream.synchronize()
        return float(buf.read()[0])

    report = _sanitized(body, 1)
    assert report.races == []
    assert report == [1.0]


def test_missing_signal_wait_is_a_race():
    """PE0 put_signals into PE1's window; PE1 reads without waiting."""

    def body(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        dest = shmem.malloc(16, np.float64)
        sig = shmem.malloc(1, np.int64)
        if ctx.rank == 0:
            shmem.put_signal(dest, dest, 16, sig, 1, 1)
        else:
            dest.read()  # BUG: no shmem.signal_wait_until(sig, "ge", 1)

    report = _sanitized(body, 2)
    hits = [r for r in report.races
            if r.kind == "race" and r.second["op"] == "put<-pe0"
            and r.first["kind"] == "r" and r.first["rank"] == 1]
    assert hits, f"put/read race not caught: {_ops(report)}"


def test_signal_wait_fixes_the_race():
    def body(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        dest = shmem.malloc(16, np.float64)
        sig = shmem.malloc(1, np.int64)
        if ctx.rank == 0:
            dest.write(np.full(16, 7.0))
            shmem.put_signal(dest, dest, 16, sig, 1, 1)
            return None
        shmem.signal_wait_until(sig, "ge", 1)
        return float(dest.read()[0])

    report = _sanitized(body, 2)
    assert report.races == []
    assert report[1] == 7.0


def test_sync_after_an_externally_completed_stream_op_orders_the_host():
    """A stream that ends in a signal wait is completed by the *remote*
    notifier's callback, a context that never ran on the stream; a
    ``synchronize()`` on it must still order the host after the stream's
    earlier kernel."""

    def body(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        stream = ctx.device.create_stream()
        work = shmem.malloc(32, np.float32)
        halo = shmem.malloc(32, np.float32)
        sig = shmem.malloc(1, np.uint64)
        right = (ctx.rank + 1) % ctx.world_size
        shmem.barrier_all()
        ctx.device.launch(k_fill, dim3(1), dim3(32), args=(work,), stream=stream)
        shmem.put_signal_on_stream(halo, work, 32, sig, 1, right, stream)
        shmem.signal_wait_until_on_stream(sig, "ge", 1, stream)
        stream.synchronize()
        return float(work.read()[0] + halo.read()[0])

    report = _sanitized(body, 8)
    assert report.races == [], _ops(report)
    assert report == [2.0] * 8


def test_collective_overlapping_async_kernel_is_a_race():
    """A collective snapshots its send buffer while a kernel still owns it."""

    def body(ctx):
        device = ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        stream = device.create_stream()
        a = device.malloc(16, np.float32)
        out = device.malloc(16, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(a,), stream=stream)
        # BUG: no stream.synchronize() before handing `a` to the collective.
        shmem.allreduce(a, out, 16)
        stream.synchronize()

    report = _sanitized(body, 2)
    hits = [(f, s, k) for f, s, k in _ops(report)
            if {f, s} == {"san_fill", "shmem-allreduce"}]
    assert hits, f"collective/kernel race not caught: {_ops(report)}"


def test_synced_collective_is_clean():
    def body(ctx):
        device = ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        stream = device.create_stream()
        a = device.malloc(16, np.float32)
        out = device.malloc(16, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(a,), stream=stream)
        stream.synchronize()
        shmem.allreduce(a, out, 16)
        return float(out.read()[0])

    report = _sanitized(body, 2)
    assert report.races == []
    assert report == [2.0, 2.0]  # sum over 2 PEs


def test_mpi_read_before_wait_is_a_race():
    """Reading an irecv buffer before Request.wait."""

    def body(ctx):
        device = ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        comm = mpi.comm_world
        buf = device.malloc(8, np.float32)
        if ctx.rank == 0:
            buf.fill(3.0)
            comm.send(buf, 8, 1)
        else:
            req = comm.irecv(buf, 8, 0)
            buf.read()  # BUG: before req.wait()
            req.wait()
        mpi.finalize()

    report = _sanitized(body, 2)
    hits = [r for r in report.races
            if r.kind == "race" and r.second["kind"] == "w"
            and r.first["kind"] == "r" and r.first["rank"] == 1]
    assert hits, f"irecv/read race not caught: {_ops(report)}"


def test_mpi_wait_fixes_the_race():
    def body(ctx):
        device = ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        comm = mpi.comm_world
        buf = device.malloc(8, np.float32)
        out = None
        if ctx.rank == 0:
            buf.fill(3.0)
            comm.send(buf, 8, 1)
        else:
            req = comm.irecv(buf, 8, 0)
            req.wait()
            out = float(buf.read()[0])
        mpi.finalize()
        return out

    report = _sanitized(body, 2)
    assert report.races == []
    assert report[1] == 3.0


def test_barrier_implies_quiet():
    """Regression for a substrate bug the sanitizer flagged during bring-up:
    the simulated SHMEM barrier arrived without completing the calling PE's
    outstanding puts, but NVSHMEM's barrier is quiet + sync — put-composed
    collectives rely on the barrier closing their data movement."""

    def body(ctx):
        device = ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        stream = device.create_stream()
        window = shmem.malloc(8, np.float64)
        src = device.malloc(8, np.float64)
        src.write(np.full(8, float(ctx.rank + 1)))
        peer = (ctx.rank + 1) % ctx.world_size
        # Stream-ordered put with no quiet: only the barrier orders it.
        shmem.put_on_stream(window, src, 8, peer, stream)
        shmem.barrier_all_on_stream(stream)
        stream.synchronize()
        return float(window.read()[0])

    report = _sanitized(body, 2)
    assert report.races == [], "\n".join(str(r) for r in report.races)
    assert report == [2.0, 1.0]  # each PE sees its neighbour's payload


# --------------------------------------------------------------------- #
# Memory-safety findings.
# --------------------------------------------------------------------- #


def test_use_after_free_is_reported():
    def body(ctx):
        device = ctx.set_device(0)
        buf = device.malloc(8, np.float32)
        device.free(buf)
        buf.read()

    with pytest.raises(GpuError, match="freed") as ei:
        _sanitized(body, 1)
    report = ei.value.run_report
    hits = [r for r in report.races if r.kind == "use-after-free"]
    assert hits
    assert hits[0].first["op"] == "free"  # the free is the first access


def test_put_out_of_bounds_is_reported():
    def body(ctx):
        ctx.set_device(0)
        shmem = ShmemContext(ctx)
        window = shmem.malloc(4, np.float32)
        shmem.put(window, np.zeros(8, np.float32), 8, 0)

    with pytest.raises(GpushmemError, match="window of 4") as ei:
        _sanitized(body, 1)
    report = ei.value.run_report
    assert any(r.kind == "out-of-bounds" and r.stop == 8 for r in report.races)


def test_race_report_renders_both_accesses():
    r = RaceReport(
        "race", "gpu0:buf1(32xfloat32)", 0, 32,
        {"rank": 0, "stream": None, "op": "host", "kind": "r",
         "start": 0, "stop": 32, "t": 1e-6},
        {"rank": 0, "stream": "s0", "op": "san_fill", "kind": "rw",
         "start": 0, "stop": 32, "t": 2e-6},
    )
    text = str(r)
    assert "race: gpu0:buf1(32xfloat32)[0:32)" in text
    assert "first : r [0:32) by rank 0 in 'host'" in text
    assert "second: rw [0:32) by rank 0 stream s0 in 'san_fill'" in text
    assert r.as_dict()["first"]["op"] == "host"


def test_races_surface_as_chrome_trace_instants():
    def body(ctx):
        device = ctx.set_device(0)
        stream = device.create_stream()
        buf = device.malloc(32, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(buf,), stream=stream)
        buf.read()  # seeded race (missing sync)

    tracer = Tracer()
    report = launch(body, 1, sanitize="race", tracer=tracer)
    assert report.races
    events = to_chrome_trace(tracer)
    instants = [e for e in events if e.get("name", "").startswith("sanitize.")]
    assert instants and all(e["ph"] == "i" for e in instants)
    # The instant carries both access descriptions for trace viewers.
    args = instants[0]["args"]
    assert "second" in args and "san_fill" in json.dumps(args)


def test_an_access_never_parks_its_task_halfway_through_a_shadow_update(monkeypatch):
    """An access made in debt settles once, at entry to ``record``: the task
    never blocks between reading a buffer's shadow history and writing it
    back, where an access another task recorded meanwhile would be lost.
    (The surface program's gatherv/scatterv reads after an ``isend`` enter
    ``record`` in debt.)"""
    record, shadow_for, block = Sanitizer.record, Sanitizer._shadow_for, Engine.block
    recording, updating, in_debt, halfway = set(), set(), [], []

    def watched_record(self, *args, **kwargs):
        task = self.engine.current_task
        if task is not None and task.busy_until > self.engine._now:
            in_debt.append(task.name)
        recording.add(task)
        try:
            return record(self, *args, **kwargs)
        finally:
            recording.discard(task)
            updating.discard(task)

    def watched_shadow_for(self, root):
        if self.engine.current_task in recording:
            updating.add(self.engine.current_task)
        return shadow_for(self, root)

    def watched_block(self, *args, **kwargs):
        if self.current_task in updating:
            halfway.append(self.current_task.name)
        return block(self, *args, **kwargs)

    monkeypatch.setattr(Sanitizer, "record", watched_record)
    monkeypatch.setattr(Sanitizer, "_shadow_for", watched_shadow_for)
    monkeypatch.setattr(Engine, "block", watched_block)
    report = launch(run_digest.surface("mpi"), 4, sanitize="race")
    assert in_debt, "no access was made in debt: the check is vacuous"
    assert halfway == []
    assert report.races == []


# --------------------------------------------------------------------- #
# Clean runs: the shipped apps are race-free on every backend.
# --------------------------------------------------------------------- #

JACOBI_CFG = JacobiConfig(nx=64, ny=66, iters=3, warmup=1)
CG_CFG = CgConfig(n=192, nnz_per_row=5, iters=4)


@pytest.mark.parametrize("variant", [
    "mpi-native",
    "gpuccl-native",
    "gpushmem-host-native",
    "gpushmem-device-native",
    "uniconn:mpi",
    "uniconn:gpuccl",
    "uniconn:gpushmem",
    "uniconn:gpushmem:PartialDevice",
    "uniconn:gpushmem:PureDevice",
])
def test_jacobi_variants_are_race_free(variant):
    report = launch_jacobi(variant, JACOBI_CFG, 4, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)


@pytest.mark.parametrize("variant", [
    "mpi-native",
    "gpuccl-native",
    "gpushmem-host-native",
    "gpushmem-device-native",
    "uniconn:mpi",
    "uniconn:gpuccl",
    "uniconn:gpushmem",
    "uniconn:gpushmem:PureDevice",
])
def test_cg_variants_are_race_free(variant):
    report = launch_cg(variant, CG_CFG, 4, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)


@pytest.mark.parametrize("variant", [
    "mpi-native",
    "gpuccl-native",
    "gpushmem-host-native",
    "gpushmem-device-native",
    "uniconn:mpi-rma",
])
def test_osu_latency_variants_are_race_free(variant):
    cfg = OsuConfig(sizes=(1024,), iters_small=4, warmup_small=1,
                    iters_large=2, warmup_large=1, window=4, repeats=1)
    fn = LATENCY_VARIANTS[variant]
    report = launch(lambda ctx: fn(ctx, cfg), 2, sanitize="race")
    assert report.races == [], "\n".join(str(r) for r in report.races)
