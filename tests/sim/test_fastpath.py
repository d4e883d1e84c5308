"""What the scheduler saves the host (targeted wakeups, switchless dispatch,
batched waits, deferred charges) and that none of it shows in virtual time.

Two families of guarantees:

1. **Determinism**: deferred charges (``Engine.defer_busy``) are invisible —
   the full Chrome trace, clock, results and timeline-event count of a
   multi-rank application run are identical to those of its *eager twin*,
   the same launch under a fault plan that never fires. A fault injector,
   a watchdog or capture makes ``Engine.run`` sleep every charge where it
   is made, so the twin (the "slow" side of the ``fast_vs_slow`` tests)
   reaches the same timeline through one handoff per charge. The race
   sanitizer and span tracing defer like an uninstrumented run, and are
   held to the same identity against their own eager twins. Instruments
   and options that should do nothing (sanitizer, collective policy,
   capture) are held to the same byte-identity.
2. **It actually does something**: the stats counters are pinned — inline
   resumes happen, one notify wakes one waiter, one waitall is one wakeup.
"""

import hashlib
import inspect
import json

import numpy as np
import pytest

from repro.apps.jacobi import JacobiConfig, launch_variant
from repro.backends.mpi import MpiContext
from repro.backends.mpi.request import Request, waitall
from repro.errors import MpiError
from repro.gpu import Device, TimedOp, kernel
from repro.hardware import Cluster, perlmutter
from repro.launcher import launch
from repro.obs import analyze_records
from repro.sim import Broadcast, Counter, Engine, SimEvent, Tracer, run_spmd, to_chrome_trace

CFG = JacobiConfig(nx=96, ny=98, iters=3, warmup=1)


def _trace_json(tracer) -> str:
    return json.dumps({"traceEvents": to_chrome_trace(tracer)}, sort_keys=True)


INERT_PLAN = "drop,tag=0,start=1e6,end=2e6;straggler,gpu=0,factor=1"


def _traced_run(variant: str, fault_plan=None, sanitize=None, coll=None,
                capture=None, cfg=CFG):
    tracer = Tracer()
    results = launch_variant(variant, cfg, 8, tracer=tracer,
                             fault_plan=fault_plan, sanitize=sanitize,
                             coll=coll, capture=capture)
    return results, results.stats, _trace_json(tracer)


def _default_and_eager(run):
    """``run(tracer, fault_plan) -> RunReport`` as launched by default and as
    its eager twin (the inert plan): for each, the trace, the virtual
    clock, every rank's result with array payloads as digests
    (``RunReport.to_dict``), the timeline-event count and the task count —
    what must not differ — plus the stats, which may."""
    out = []
    for plan in (None, INERT_PLAN):
        tracer = Tracer()
        report = run(tracer, plan)
        same = (_trace_json(tracer), report.stats["virtual_time"],
                report.to_dict()["results"], report.stats["timers_fired"],
                report.stats["tasks_spawned"])
        out.append((same, report.stats))
    return out


UNICONN_VARIANTS = ["uniconn:mpi", "uniconn:gpuccl", "uniconn:gpushmem",
                    "uniconn:gpushmem:PartialDevice", "uniconn:gpushmem:PureDevice"]


@pytest.mark.parametrize(
    "variant",
    ["mpi-native", "gpuccl-native", "gpushmem-host-native"] + UNICONN_VARIANTS,
)
def test_trace_byte_identical_fast_vs_slow(variant):
    (fast, stats_fast), (slow, stats_slow) = _default_and_eager(
        lambda tracer, plan: launch_variant(variant, CFG, 8, tracer=tracer,
                                            collect=True, fault_plan=plan))
    assert fast == slow
    if variant in UNICONN_VARIANTS:
        # The identity is not vacuous: the default run did defer the
        # uniform layer's charges, and the twin did sleep each one.
        assert stats_fast["switches"] < 0.7 * stats_slow["switches"]


@pytest.mark.parametrize("backend", ["mpi", "gpuccl", "gpushmem"])
def test_cg_byte_identical_fast_vs_slow(backend):
    from repro.apps import cg

    cfg = cg.CgConfig(n=512, nnz_per_row=9, iters=6, seed=3)
    problem = cg.make_problem(cfg)
    (fast, stats_fast), (slow, stats_slow) = _default_and_eager(
        lambda tracer, plan: cg.launch_variant(f"uniconn:{backend}", cfg, 4,
                                               problem=problem, collect=True,
                                               tracer=tracer, fault_plan=plan))
    assert fast == slow
    assert stats_fast["switches"] < stats_slow["switches"]


# The sanitizer and span tracing observe deferred charges instead of making
# them sleep: same timeline, same findings, same analysis, fewer handoffs.
SMALL = JacobiConfig(nx=32, ny=34, iters=16, warmup=2)
INSTRUMENTS = {"spans": dict(obs="spans"), "race": dict(sanitize="race"),
               "spans+race": dict(obs="spans", sanitize="race")}
# Host-side stats: the scheduler's counters and the sanitizer's own
# bookkeeping (and the twin's empty fault log, present only under a plan).
_HOST_STATS = ("switches", "inline_resumes", "wakeups", "events", "sanitizer", "faults")


def _assert_defers_like_its_eager_twin(run, ranks):
    """Launch ``run(tracer, fault_plan) -> RunReport`` by default and as its
    eager twin: the Chrome trace, ``to_dict()`` without host-side stats (its
    ``races`` and ``timers_fired`` included) and the span analysis must be
    equal, and the default run must switch threads fewer times."""
    out = []
    for plan in (None, INERT_PLAN):
        tracer = Tracer()
        report = run(tracer, plan)
        doc = report.to_dict()
        switches = doc["stats"]["switches"]
        for key in _HOST_STATS:
            doc["stats"].pop(key, None)
        analysis = analyze_records(tracer.records, n_ranks=ranks,
                                   total_time=report.stats["virtual_time"]).as_dict()
        # (A digest: pytest's diff of two megabyte strings takes minutes.)
        trace = hashlib.sha256(_trace_json(tracer).encode()).hexdigest()
        out.append(((trace, doc, analysis), switches))
    (fast, switches_fast), (slow, switches_slow) = out
    assert fast[0] == slow[0]  # trace
    assert fast[1] == slow[1]  # results, races, metrics, timers_fired
    assert fast[2] == slow[2]  # time breakdown and critical path
    assert switches_fast < switches_slow


@pytest.mark.parametrize("instrument", INSTRUMENTS)
@pytest.mark.parametrize("variant", UNICONN_VARIANTS)
def test_instrumented_jacobi_defers_like_its_eager_twin(variant, instrument):
    _assert_defers_like_its_eager_twin(
        lambda tracer, plan: launch_variant(variant, SMALL, 8, tracer=tracer, collect=True,
                                            fault_plan=plan, **INSTRUMENTS[instrument]), 8)


@pytest.mark.parametrize("instrument", INSTRUMENTS)
@pytest.mark.parametrize("backend", ["mpi", "gpuccl", "gpushmem"])
def test_instrumented_cg_defers_like_its_eager_twin(backend, instrument):
    from repro.apps import cg

    cfg = cg.CgConfig(n=512, nnz_per_row=9, iters=6, seed=3)
    problem = cg.make_problem(cfg)
    _assert_defers_like_its_eager_twin(
        lambda tracer, plan: cg.launch_variant(f"uniconn:{backend}", cfg, 8, problem=problem,
                                               collect=True, tracer=tracer, fault_plan=plan,
                                               **INSTRUMENTS[instrument]), 8)


def _mpi_blocking(ctx):
    """Blocking MPI send/recv around a ring, a staged (rendezvous-size)
    bcast, then a Uniconn ``Communicator.split`` and a barrier on the
    sub-communicator."""
    from repro import Communicator, Environment

    env = Environment(ctx, backend="mpi")
    env.set_device(env.node_rank())
    comm, device = env.mpi.comm_world, env.device
    me, p = comm.rank, comm.size
    out, got, big = device.malloc(4), device.malloc(4), device.malloc(1 << 16)
    out.write(np.full(4, float(me), np.float32))
    big.write(np.full(1 << 16, float(me), np.float32))
    for first in ("send", "recv") if me % 2 == 0 else ("recv", "send"):
        if first == "send":
            comm.send(out, 4, (me + 1) % p)
        else:
            comm.recv(got, 4, (me - 1) % p)
    comm.bcast(big, 1 << 16, root=1)
    Communicator(env).split(me % 2).barrier()
    result = (env.engine.now, got.read().copy(), big.read(4).copy())
    env.close()
    return result


def _shmem_api(side):
    from tests.core.test_coordinator import run_digest

    return lambda tracer, plan: launch(run_digest.shmem_api(side), 4, n_nodes=2,
                                       placement="spread", tracer=tracer, fault_plan=plan)


#: The charges no app above reaches, or reaches only in passing: device
#: kernels (launch overhead, ``DeviceCtx.compute``, the device API), the
#: blocking GPUSHMEM host calls, blocking MPI, one-sided MPI, and the
#: uniform layer's split and barrier.
CONVERTED = {
    "jacobi/PartialDevice": lambda tracer, plan: launch_variant(
        "uniconn:gpushmem:PartialDevice", SMALL, 8, tracer=tracer, collect=True,
        fault_plan=plan),
    "jacobi/PureDevice": lambda tracer, plan: launch_variant(
        "uniconn:gpushmem:PureDevice", SMALL, 8, tracer=tracer, collect=True,
        fault_plan=plan),
    "jacobi/mpi-rma": lambda tracer, plan: launch_variant(
        "uniconn:mpi-rma", SMALL, 8, tracer=tracer, collect=True, fault_plan=plan),
    "shmem-api/device": _shmem_api("device"),
    "shmem-api/host": _shmem_api("host"),
    "mpi-blocking+split": lambda tracer, plan: launch(_mpi_blocking, 4, tracer=tracer,
                                                     fault_plan=plan),
}


@pytest.mark.parametrize("case", CONVERTED)
def test_converted_charges_defer_like_their_eager_twin(case):
    _assert_defers_like_its_eager_twin(CONVERTED[case], 8 if case.startswith("jacobi") else 4)


def _osu_uniconn_cases():
    from repro.apps.osu.bandwidth import BANDWIDTH_VARIANTS
    from repro.apps.osu.latency import LATENCY_VARIANTS

    for kind, table in (("latency", LATENCY_VARIANTS), ("bandwidth", BANDWIDTH_VARIANTS)):
        for variant in table:
            if variant.startswith("uniconn:"):
                yield pytest.param(table[variant], variant, id=f"{kind}/{variant}")


@pytest.mark.parametrize("fn,variant", _osu_uniconn_cases())
def test_osu_uniconn_byte_identical_fast_vs_slow(fn, variant):
    from repro.apps.osu import OsuConfig

    cfg = OsuConfig(sizes=(8, 65536), iters_small=4, warmup_small=1,
                    iters_large=2, warmup_large=1, window=4, repeats=1)

    def run(tracer, plan):
        return launch(fn, 2, args=(cfg,), tracer=tracer, fault_plan=plan)

    (fast, stats_fast), (slow, stats_slow) = _default_and_eager(run)
    assert fast == slow
    assert stats_fast["switches"] < stats_slow["switches"]


@kernel()
def _noop_kernel(ctx):
    pass


def _after_two_posts(then):
    """2 ranks: isend + irecv to the peer, then ``then(ctx, t0)`` before
    the waitall; returns launch's ``run(tracer, fault_plan)``."""

    def body(ctx):
        ctx.set_device(ctx.node_rank)
        mpi = MpiContext(ctx)
        comm, device, peer = mpi.comm_world, ctx.require_device(), 1 - ctx.rank
        send, recv = device.malloc(4, np.float32), device.malloc(4, np.float32)
        t0 = ctx.engine.now
        reqs = [comm.isend(send, 4, peer), comm.irecv(recv, 4, peer)]
        out = then(ctx, t0)
        waitall(reqs)
        device.synchronize()
        mpi.finalize()
        return out

    return lambda tracer, plan: launch(body, 2, tracer=tracer, fault_plan=plan)


def test_kernel_launched_after_posts_starts_after_their_overhead():
    """The posts' call overhead is deferred, not forgiven: a launch that
    follows them enqueues when a host that slept each overhead would."""
    run = _after_two_posts(lambda ctx, t0: ctx.require_device().launch(_noop_kernel, 1, 32))
    (fast, _), (slow, _) = _default_and_eager(run)
    assert fast == slow
    enqueues = [e["ts"] for e in json.loads(fast[0])["traceEvents"]
                if e["name"] == "stream.enqueue"]
    overhead_us = 2 * 0.4  # two host_call_overheads (perlmutter MPI profile)
    assert enqueues and min(enqueues) == pytest.approx(overhead_us)


def test_clock_read_after_posts_includes_their_overhead():
    """A task never sees a clock earlier than its own busy time."""
    run = _after_two_posts(lambda ctx, t0: ctx.engine.now - t0)
    (fast, _), (slow, _) = _default_and_eager(run)
    assert fast == slow
    assert fast[2] == [pytest.approx(8e-07)] * 2


# A halo row above every preset's eager threshold: rendezvous traffic.
CFG_RDV = JacobiConfig(nx=4096, ny=34, iters=3, warmup=1)


@pytest.mark.parametrize("cfg", [CFG, CFG_RDV], ids=["eager", "rdv"])
@pytest.mark.parametrize("variant", ["mpi-native", "uniconn:mpi"])
def test_trace_byte_identical_without_and_with_inert_fault_plan(variant, cfg):
    """Fault injection is free when it does nothing.

    A run with no plan and a run whose plan's fault window never overlaps
    the job (every MPI delivery attempt asks the injector for a verdict,
    and every verdict is 'healthy') must produce byte-identical traces on
    eager and rendezvous traffic alike — injected-fault support cannot
    perturb fault-free timings.
    """
    res_none, stats_none, trace_none = _traced_run(variant, cfg=cfg)
    res_inert, stats_inert, trace_inert = _traced_run(variant, fault_plan=INERT_PLAN,
                                                      cfg=cfg)
    rdv = res_inert.metrics.counter_total("mpi_messages_total", protocol="rdv")
    assert (rdv > 0) == (cfg is CFG_RDV)
    assert rdv == res_none.metrics.counter_total("mpi_messages_total", protocol="rdv")
    assert stats_none["virtual_time"] == stats_inert["virtual_time"]
    assert trace_none == trace_inert
    assert stats_inert["faults"] == []  # installed, but nothing ever fired


def test_cg_trace_byte_identical_without_and_with_inert_fault_plan():
    """The same identity on CG: MPI collectives (eager) and the
    rendezvous-size AllGatherv of the search direction."""
    from repro.apps import cg

    cfg = cg.CgConfig(n=4096, nnz_per_row=9, iters=4, seed=3)
    problem = cg.make_problem(cfg)
    traces, reports = [], []
    for plan in (None, INERT_PLAN):
        tracer = Tracer()
        reports.append(cg.launch_variant("uniconn:mpi", cfg, 4, problem=problem,
                                         tracer=tracer, fault_plan=plan))
        traces.append(json.dumps({"traceEvents": to_chrome_trace(tracer)},
                                 sort_keys=True))
    assert reports[1].metrics.counter_total("mpi_messages_total", protocol="rdv") > 0
    assert reports[0].stats["virtual_time"] == reports[1].stats["virtual_time"]
    assert traces[0] == traces[1]
    assert reports[1].stats["faults"] == []


def test_trace_byte_identical_with_sanitizer_off():
    """``sanitize=False`` (and the default None) must be a true no-op:
    every sanitizer hook reduces to one ``is None`` check, so the trace is
    byte-identical to a run that never heard of the sanitizer."""
    _, stats_default, trace_default = _traced_run("mpi-native")
    _, stats_off, trace_off = _traced_run("mpi-native", sanitize=False)
    assert stats_default["virtual_time"] == stats_off["virtual_time"]
    assert trace_default == trace_off


def test_trace_byte_identical_with_sanitizer_on_clean_run():
    """Stronger: the sanitizer observes, it never perturbs. A race-free run
    under ``sanitize='race'`` emits no extra records and schedules no extra
    virtual-time work, so even the *on* trace is byte-identical."""
    _, stats_off, trace_off = _traced_run("gpushmem-host-native")
    results, stats_on, trace_on = _traced_run("gpushmem-host-native", sanitize="race")
    assert results.races == []
    assert stats_off["virtual_time"] == stats_on["virtual_time"]
    assert trace_off == trace_on


def _default_selecting_table():
    """A tuning table mapping every backend and kind to its own default."""
    from repro.coll import (CollPolicy, CollTable, CollTuner,
                            DEFAULT_ALGORITHM)

    sig = CollTuner("perlmutter", 8).topo.signature()
    table = CollTable(machine="perlmutter")
    for backend, defaults in DEFAULT_ALGORITHM.items():
        for kind, algo in defaults.items():
            table.set_bands(sig, backend, kind, [(None, algo)])
    return CollPolicy.from_table(table)


@pytest.mark.parametrize(
    "variant", ["mpi-native", "gpuccl-native", "gpushmem-host-native"]
)
def test_trace_byte_identical_with_coll_tuning_disabled(variant):
    """The collective engine must be invisible unless it changes a choice.

    Three runs must trace byte-identically: no policy at all (engine.coll
    is None — the backends' defaults), the policy explicitly off, and a
    table policy that maps every backend to its own default algorithm (the
    selection machinery runs, resolves to the default, and its schedule
    prices it — see repro.coll.models)."""
    _, stats_none, trace_none = _traced_run(variant)
    _, stats_off, trace_off = _traced_run(variant, coll="off")
    _, stats_table, trace_table = _traced_run(variant, coll=_default_selecting_table())
    assert stats_none["virtual_time"] == stats_off["virtual_time"]
    assert stats_none["virtual_time"] == stats_table["virtual_time"]
    assert trace_none == trace_off
    assert trace_none == trace_table


def test_trace_byte_identical_fast_vs_slow_with_coll_policy():
    """A live (auto) collective policy must not break the deferred charges'
    determinism contract: the default run and its eager twin still trace
    byte-identically when schedules are being selected and executed."""
    _, stats_fast, trace_fast = _traced_run("gpuccl-native", coll="auto")
    _, stats_slow, trace_slow = _traced_run("gpuccl-native", fault_plan=INERT_PLAN,
                                            coll="auto")
    assert stats_fast["virtual_time"] == stats_slow["virtual_time"]
    assert trace_fast == trace_slow


# --------------------------------------------------------------------------- #
# Graph capture & replay (repro.sim.capture).
# --------------------------------------------------------------------------- #

# Long enough past the settling transient for the detector to admit replay
# (three consecutive bit-identical periods, then whole skipped spans).
CFG_STEADY = JacobiConfig(nx=96, ny=98, iters=48, warmup=1)


def test_trace_byte_identical_capture_off_vs_regions():
    """Replay is invisible in virtual time: a captured run that skips whole
    iterations as fused pre-resolved schedules must produce the byte-identical
    Chrome trace — and the bit-identical clock — of an uncaptured run."""
    _, stats_off, trace_off = _traced_run("mpi-native", capture="off", cfg=CFG_STEADY)
    _, stats_on, trace_on = _traced_run("mpi-native", capture="regions", cfg=CFG_STEADY)
    cap = stats_on["capture"]
    assert cap["enabled"] and cap["disabled"] is None
    assert cap["replays"] >= 1
    assert cap["events_replayed"] > 0
    assert cap["iterations_skipped"] > 0
    assert stats_off["virtual_time"] == stats_on["virtual_time"]
    assert trace_off == trace_on


def test_capture_disabled_by_fault_injector():
    """Any fault plan — even one whose windows never overlap the job —
    forces live execution: replay and nondeterministic machinery don't mix.
    The run still traces byte-identically to a plain uncaptured run."""
    _, stats_plain, trace_plain = _traced_run("mpi-native", cfg=CFG_STEADY)
    _, stats_cap, trace_cap = _traced_run("mpi-native", fault_plan=INERT_PLAN,
                                          capture="regions", cfg=CFG_STEADY)
    cap = stats_cap["capture"]
    assert cap["enabled"] is False
    assert cap["disabled"] == "fault-injector"
    assert cap["replays"] == 0 and cap["events_replayed"] == 0
    assert stats_plain["virtual_time"] == stats_cap["virtual_time"]
    assert trace_plain == trace_cap


def test_capture_disabled_by_sanitizer():
    """The sanitizer observes every event; skipping events would blind it,
    so ``sanitize=`` forces the capture bailout (live fallback)."""
    results, stats, _ = _traced_run("mpi-native", sanitize="race",
                                    capture="regions", cfg=CFG_STEADY)
    cap = stats["capture"]
    assert cap["enabled"] is False
    assert cap["disabled"] == "sanitizer"
    assert cap["replays"] == 0
    assert results.races == []


def test_async_host_capture_replays_via_device_marks():
    """Async-host loops (GPUCCL-native) enqueue every iteration without
    blocking, so host-side boundary marks collapse into one timer window.
    The region must fall back to device-order markers carried on the app
    stream — and actually replay — instead of silently staying live."""
    _, stats_off, trace_off = _traced_run("gpuccl-native", capture="off",
                                          cfg=CFG_STEADY)
    _, stats_on, trace_on = _traced_run("gpuccl-native", capture="regions",
                                        cfg=CFG_STEADY)
    cap = stats_on["capture"]
    assert cap["enabled"] and cap["disabled"] is None
    assert "jacobi.measure" in cap["device_mark_regions"]
    assert cap["device_replays"] >= 1
    assert cap["iterations_skipped"] > 0
    assert stats_off["virtual_time"] == stats_on["virtual_time"]
    assert trace_off == trace_on


def test_async_host_capture_gpushmem_stays_live_but_observable():
    """GPUSHMEM signal words carry per-iteration values (the effect keys
    embed them), so the timeline is never structurally periodic: the region
    must stay live — with the device-mark fallback engaged and the bailouts
    visible in stats, not a silent no-op — and trace byte-identically."""
    _, stats_off, trace_off = _traced_run("gpushmem-host-native", capture="off",
                                          cfg=CFG_STEADY)
    _, stats_on, trace_on = _traced_run("gpushmem-host-native", capture="regions",
                                        cfg=CFG_STEADY)
    cap = stats_on["capture"]
    assert cap["disabled"] is None
    assert "jacobi.measure" in cap["device_mark_regions"]
    assert cap["replays"] == 0
    assert cap["bailouts"]  # live fallback is recorded, not silent
    assert stats_off["virtual_time"] == stats_on["virtual_time"]
    assert trace_off == trace_on


def test_capture_disabled_on_boundary_collapse_without_stream(monkeypatch):
    """An async loop whose boundary() calls carry no stream has no third
    timeline to mark against: capture must disable itself with a recorded
    reason (and still trace byte-identically), never silently stay live."""
    from repro.sim.capture import CaptureRegion

    orig = CaptureRegion.boundary

    def no_stream(self, rank, i, n=None, stream=None):
        return orig(self, rank, i, n, stream=None)

    _, stats_off, trace_off = _traced_run("gpuccl-native", capture="off",
                                          cfg=CFG_STEADY)
    monkeypatch.setattr(CaptureRegion, "boundary", no_stream)
    _, stats_on, trace_on = _traced_run("gpuccl-native", capture="regions",
                                        cfg=CFG_STEADY)
    cap = stats_on["capture"]
    assert cap["disabled"] == "boundary-collapse:jacobi.measure"
    assert cap["replays"] == 0 and cap["device_replays"] == 0
    assert stats_off["virtual_time"] == stats_on["virtual_time"]
    assert trace_off == trace_on


# --------------------------------------------------------------------------- #
# EngineStats / switchless dispatch.
# --------------------------------------------------------------------------- #


def _solo_sleeper(engine: Engine) -> None:
    def body():
        for _ in range(5):
            engine.sleep(1.0)

    engine.spawn(body, name="sleeper")
    engine.run()


def test_solo_task_sleeps_resume_inline(monkeypatch):
    """...and there is one scheduler: the engine takes no parameter (a second
    one cannot be asked for, only a ``TypeError``), and the variable that
    used to select one is not read. (Its name is spelled in two halves so
    that a search for it finds no live use.)"""
    monkeypatch.setenv("REPRO_SIM_FAST" "PATH", "0")
    assert not inspect.signature(Engine).parameters
    engine = Engine()
    _solo_sleeper(engine)
    assert engine.now == 5.0
    assert engine.stats.timers_fired == 5
    assert engine.stats.inline_resumes == 5  # every sleep resolved switchlessly
    assert engine.stats.switches == 1  # only the initial dispatch


def test_stats_as_dict_and_events():
    engine = Engine()
    _solo_sleeper(engine)
    d = engine.stats.as_dict()
    assert d["events"] == d["switches"] + d["inline_resumes"] + d["timers_fired"]
    assert d["tasks_spawned"] == 1
    assert engine.stats.events() == d["events"]


# --------------------------------------------------------------------------- #
# Deferred charges (Engine.defer_busy / after_busy / settle).
# --------------------------------------------------------------------------- #


def _host_task(body, eager=False):
    """Run ``body(engine, stream)`` as the one task of a one-GPU engine;
    ``eager`` installs an instrument (a watchdog nothing trips), under which
    ``defer_busy`` sleeps."""
    engine = Engine()
    if eager:
        engine.watchdog_timeout = 100.0
    stream = Device(engine, Cluster(perlmutter(), 1), gpu_id=0).create_stream()
    out = {}
    engine.spawn(lambda: out.update(result=body(engine, stream)), name="host")
    engine.run()
    return out["result"], engine


@pytest.mark.parametrize("deferred", [True, False])
def test_charge_then_enqueue_starts_the_op_after_the_charge(deferred):
    started = []

    def body(engine, stream):
        engine.defer_busy(1.0)
        stream.enqueue(TimedOp(engine, "op", lambda: started.append(engine.now) or 2.0))
        engine.defer_busy(0.5)
        stream.synchronize()
        return engine.now

    end, engine = _host_task(body, eager=not deferred)
    assert started == [1.0] and end == 3.0
    # Deferred: one block (the synchronize). Eager: one per charge too.
    assert engine.stats.switches + engine.stats.inline_resumes == (2 if deferred else 4)


def test_stream_is_not_idle_while_an_enqueue_is_pending():
    def body(engine, stream):
        engine.defer_busy(1.0)
        stream.enqueue(TimedOp(engine, "op", lambda: 2.0))
        # The poll settles the caller's debt first, so it sees its own op.
        return stream.idle, stream.pending_ops(), stream.query(), engine.now

    assert _host_task(body)[0] == (False, 1, False, 1.0)


def test_callback_enqueue_ignores_a_blocked_tasks_debt():
    """Timer callbacks run for no task: the thread firing them belongs to a
    task that owes busy time, and an enqueue made by the callback must not
    be held back to the end of that debt."""
    started = []

    def body(engine, stream):
        op = TimedOp(engine, "op", lambda: started.append(engine.now) or 0.0)
        engine.schedule(1.0, lambda: stream.enqueue(op))
        engine.defer_busy(5.0)
        engine.sleep(10.0)  # blocks in debt; this thread fires the timer
        return engine.now

    assert _host_task(body)[0] == 15.0
    assert started == [1.0]


@pytest.mark.parametrize("publish", ["set", "add", "notify_all", "spawn", "schedule"])
def test_a_task_in_debt_publishes_at_its_own_time(publish):
    """Whatever another task can observe happens at the publisher's busy
    time, not at the clock it is running ahead of."""
    engine = Engine()
    event, counter, bcast = SimEvent(engine), Counter(engine), Broadcast(engine)
    seen = []
    observe = lambda: seen.append(engine.now)

    def observer():
        {"set": event.wait, "add": lambda: counter.wait_for(lambda v: v > 0),
         "notify_all": bcast.wait}.get(publish, lambda: None)()
        if publish not in ("spawn", "schedule"):
            observe()

    def publisher():
        engine.defer_busy(1.0)
        {"set": event.set, "add": lambda: counter.add(1), "notify_all": bcast.notify_all,
         "spawn": lambda: engine.spawn(observe, name="child"),
         "schedule": lambda: engine.schedule(0.0, observe)}[publish]()

    engine.spawn(observer, name="observer")
    engine.spawn(publisher, name="publisher")
    engine.run()
    assert seen == [1.0]


def test_instruments_keep_charges_eager():
    """With a watchdog (or capture, a fault injector) installed the charge
    is slept at the call."""
    def body(engine, stream):
        engine.defer_busy(1.0)
        return engine.current_task.busy_until

    busy, engine = _host_task(body, eager=True)
    assert busy == 0.0 and engine.now == 1.0


def test_a_record_made_in_debt_is_stamped_with_the_callers_time():
    """A trace record observes a deferred charge without settling it: it
    reads the time the caller would see had it slept the charge."""
    stamps = []

    def body(engine, stream):
        engine.trace_hook = lambda kind, t, fields: stamps.append(t)
        engine.defer_busy(1.0)
        engine.trace("mark")
        return engine.current_task.busy_until, engine._now

    assert _host_task(body)[0] == (1.0, 0.0)
    assert stamps == [1.0]


# --------------------------------------------------------------------------- #
# Targeted wakeups.
# --------------------------------------------------------------------------- #


def test_targeted_wakeups_skip_the_herd():
    """Four tasks wait for increasing counter thresholds; one task counts up."""
    engine = Engine()
    counter = Counter(engine, name="thresh")
    order = []

    def waiter(k):
        def body():
            counter.wait_for(lambda v: v >= k)
            order.append(k)

        return body

    def bumper():
        for _ in range(4):
            engine.sleep(1.0)
            counter.add(1)

    for k in (1, 2, 3, 4):
        engine.spawn(waiter(k), name=f"w{k}")
    engine.spawn(bumper, name="bumper")
    engine.run()
    assert order == [1, 2, 3, 4] and counter.value == 4
    # Five spawns, the bumper's four sleeps, and per add the one task whose
    # threshold was reached — a herd (every still-waiting task woken at
    # every add) would read 19.
    assert engine.stats.wakeups == 5 + 4 + 4


def test_wait_for_woken_only_when_predicate_holds():
    engine = Engine()
    bcast = Broadcast(engine, name="b")
    state = {"x": 0}
    log = []

    def waiter():
        bcast.wait_for(lambda: state["x"] >= 2)
        log.append(("woke", state["x"]))

    def driver():
        for i in (1, 2):
            engine.sleep(1.0)
            state["x"] = i
            bcast.notify_all()
            log.append(("notified", i))

    engine.spawn(waiter, name="waiter")
    engine.spawn(driver, name="driver")
    engine.run()
    # The waiter must run strictly after the x=2 notify, never after x=1.
    assert log == [("notified", 1), ("woke", 2), ("notified", 2)] or log == [
        ("notified", 1),
        ("notified", 2),
        ("woke", 2),
    ]
    assert ("woke", 1) not in log


def test_watch_fires_once_at_first_true_notify():
    engine = Engine()
    bcast = Broadcast(engine, name="b")
    state = {"x": 0}
    fired = []

    def body():
        bcast.watch(lambda: state["x"] >= 2, lambda: fired.append(state["x"]))
        for i in (1, 2, 3):
            state["x"] = i
            bcast.notify_all()

    engine.spawn(body, name="t")
    engine.run()
    assert fired == [2]


def test_watch_fires_immediately_if_already_true():
    engine = Engine()
    fired = []

    def body():
        counter = Counter(engine, initial=5)
        counter.watch(lambda v: v >= 3, lambda: fired.append("now"))

    engine.spawn(body, name="t")
    engine.run()
    assert fired == ["now"]


def test_on_set_orders_after_task_waiters():
    """SimEvent.set wakes task waiters before running on_set callbacks."""
    engine = Engine()
    event = SimEvent(engine, name="e")
    log = []

    def waiter():
        event.wait()
        log.append("task-woken")

    def setter():
        engine.sleep(1.0)
        event.on_set(lambda: log.append("callback"))
        event.set()
        log.append("after-set")

    engine.spawn(waiter, name="waiter")
    engine.spawn(setter, name="setter")
    engine.run()
    # callback runs synchronously inside set(); the woken task runs later.
    assert log == ["callback", "after-set", "task-woken"]


def test_on_set_fires_immediately_when_already_set():
    engine = Engine()
    log = []

    def body():
        event = SimEvent(engine, name="e")
        event.set()
        event.on_set(lambda: log.append("late"))

    engine.spawn(body, name="t")
    engine.run()
    assert log == ["late"]


# --------------------------------------------------------------------------- #
# Batched waitall.
# --------------------------------------------------------------------------- #


def test_waitall_resumes_at_last_completion_in_both_modes():
    """One task waits on three requests completing at t=1,2,3."""
    engine = Engine()
    resumed_at = []

    def body():
        reqs = [Request(engine, name=f"r{i}") for i in range(3)]
        for delay, req in zip((2.0, 1.0, 3.0), reqs):
            engine.schedule(delay, req.complete)
        waitall(reqs)
        resumed_at.append(engine.now)

    engine.spawn(body, name="t")
    engine.run()
    assert resumed_at == [3.0]
    # The spawn, and one block woken by the last completion (a wait per
    # pending request would read 4).
    assert engine.stats.wakeups == 2


def test_waitall_raises_first_error_in_list_order():
    engine = Engine()
    seen = {}

    def body():
        reqs = [Request(engine, name=f"r{i}") for i in range(3)]
        engine.schedule(1.0, reqs[0].complete)
        engine.schedule(2.0, lambda: reqs[1].fail(MpiError("boom-1")))
        engine.schedule(0.5, lambda: reqs[2].fail(MpiError("boom-2")))
        try:
            waitall(reqs)
        except MpiError as exc:
            seen["error"] = str(exc)

    engine.spawn(body, name="t")
    engine.run()
    # Both requests failed, but waitall reports them in list order.
    assert seen["error"] == "boom-1"


def test_waitall_noop_and_single_request():
    engine = Engine()

    def body():
        waitall([])
        req = Request(engine, name="solo")
        engine.schedule(1.5, req.complete)
        waitall([req])
        assert engine.now == 1.5

    engine.spawn(body, name="t")
    engine.run()


# --------------------------------------------------------------------------- #
# Cross-task handoff.
# --------------------------------------------------------------------------- #


def test_spmd_interleaving_identical_fast_vs_slow():
    engine = Engine()
    order = []

    def body(rank):
        for step in range(3):
            engine.sleep(0.5 + rank * 0.1)
            order.append((step, rank))

    run_spmd(4, body, engine=engine)
    # Rank r wakes every 0.5 + 0.1 r: by time, and nothing else.
    assert order == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                     (2, 0), (1, 3), (2, 1), (2, 2), (2, 3)]
