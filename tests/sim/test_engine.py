"""Unit tests for the discrete-event engine and cooperative scheduler."""

import gc
import sys
import threading

import pytest

from repro.errors import DeadlockError, EngineStateError, SimTimeoutError
from repro.sim import Engine, current_engine, run_spmd


def test_single_task_runs_and_returns():
    eng = Engine()
    out = []
    eng.spawn(lambda: out.append("ran"), name="t0")
    eng.run()
    assert out == ["ran"]
    assert eng.now == 0.0


def test_sleep_advances_virtual_time():
    eng = Engine()
    seen = []

    def body():
        eng.sleep(1.5)
        seen.append(eng.now)
        eng.sleep(0.5)
        seen.append(eng.now)

    eng.spawn(body)
    eng.run()
    assert seen == [1.5, 2.0]
    assert eng.now == 2.0


def test_two_tasks_interleave_by_time():
    eng = Engine()
    order = []

    def mk(name, delay):
        def body():
            eng.sleep(delay)
            order.append((name, eng.now))

        return body

    eng.spawn(mk("slow", 2.0))
    eng.spawn(mk("fast", 1.0))
    eng.run()
    assert order == [("fast", 1.0), ("slow", 2.0)]


def test_schedule_callback_fires_at_time():
    eng = Engine()
    fired = []
    eng.spawn(lambda: eng.schedule(3.0, lambda: fired.append(eng.now)))

    def waiter():
        eng.sleep(5.0)

    eng.spawn(waiter)
    eng.run()
    assert fired == [3.0]


def test_timer_cancellation():
    eng = Engine()
    fired = []

    def body():
        timer = eng.schedule(1.0, lambda: fired.append("boom"))
        timer.cancel()
        eng.sleep(2.0)

    eng.spawn(body)
    eng.run()
    assert fired == []


def test_same_time_events_fire_in_schedule_order():
    eng = Engine()
    order = []

    def body():
        eng.schedule(1.0, lambda: order.append("first"))
        eng.schedule(1.0, lambda: order.append("second"))
        eng.sleep(2.0)

    eng.spawn(body)
    eng.run()
    assert order == ["first", "second"]


def test_exception_in_task_propagates_to_run():
    eng = Engine()

    def bad():
        eng.sleep(1.0)
        raise ValueError("boom")

    eng.spawn(bad)
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_failure_unwinds_other_blocked_tasks():
    eng = Engine()

    def sleeper():
        eng.sleep(100.0)

    def bad():
        eng.sleep(1.0)
        raise RuntimeError("fail fast")

    eng.spawn(sleeper)
    eng.spawn(bad)
    with pytest.raises(RuntimeError, match="fail fast"):
        eng.run()
    # Virtual time must not have run to the sleeper's horizon.
    assert eng.now == 1.0


def test_deadlock_detection_reports_waiters():
    eng = Engine()

    def stuck():
        eng.block("waiting for godot")

    eng.spawn(stuck, name="stuck-task")
    with pytest.raises(DeadlockError, match="stuck-task.*waiting for godot"):
        eng.run()


def test_engine_runs_only_once():
    eng = Engine()
    eng.spawn(lambda: None)
    eng.run()
    with pytest.raises(EngineStateError):
        eng.run()


def test_spawn_from_inside_task():
    eng = Engine()
    out = []

    def child():
        eng.sleep(1.0)
        out.append(("child", eng.now))

    def parent():
        eng.spawn(child, name="child")
        eng.sleep(2.0)
        out.append(("parent", eng.now))

    eng.spawn(parent, name="parent")
    eng.run()
    assert out == [("child", 1.0), ("parent", 2.0)]


def test_join_returns_child_result():
    eng = Engine()
    got = []

    def child():
        eng.sleep(1.0)
        return 42

    def parent():
        task = eng.spawn(child)
        got.append(eng.join(task))
        got.append(eng.now)

    eng.spawn(parent)
    eng.run()
    assert got == [42, 1.0]


def test_join_finished_task_is_immediate():
    eng = Engine()
    got = []

    def child():
        return "done"

    def parent():
        task = eng.spawn(child)
        eng.sleep(5.0)
        got.append(eng.join(task))

    eng.spawn(parent)
    eng.run()
    assert got == ["done"]


def test_current_engine_inside_task():
    eng = Engine()
    seen = []
    eng.spawn(lambda: seen.append(current_engine() is eng))
    eng.run()
    assert seen == [True]


def test_current_engine_outside_task_raises():
    with pytest.raises(EngineStateError):
        current_engine()


def test_negative_delay_rejected():
    eng = Engine()

    def body():
        with pytest.raises(ValueError):
            eng.schedule(-1.0, lambda: None)

    eng.spawn(body)
    eng.run()


def test_determinism_two_runs_identical():
    def scenario():
        eng = Engine()
        log = []

        def mk(name):
            def body():
                for i in range(5):
                    eng.sleep(0.5 + 0.1 * (hash(name) % 3))
                    log.append((name, round(eng.now, 6)))

            return body

        for n in ("a", "b", "c"):
            eng.spawn(mk(n), name=n)
        eng.run()
        return log

    assert scenario() == scenario()


def test_run_spmd_returns_per_rank_results():
    results = run_spmd(4, lambda rank: rank * rank)
    assert results == [0, 1, 4, 9]


def test_run_spmd_passes_args():
    results = run_spmd(2, lambda rank, base: base + rank, 10)
    assert results == [10, 11]


def test_run_spmd_rejects_zero_ranks():
    with pytest.raises(ValueError):
        run_spmd(0, lambda r: r)


def test_many_tasks_scale():
    eng = Engine()
    done = []

    def mk(i):
        def body():
            eng.sleep(i * 0.001)
            done.append(i)

        return body

    for i in range(100):
        eng.spawn(mk(i), name=f"t{i}")
    eng.run()
    assert done == list(range(100))


# --------------------------------------------------------------------- #
# Task threads: recycled per engine, gone when run() returns.
# --------------------------------------------------------------------- #


def _jacobi(variant, ranks=4, iters=5, **options):
    from repro.apps import jacobi

    cfg = jacobi.JacobiConfig(nx=32, ny=34, iters=iters, warmup=1)
    return jacobi.launch_variant(variant, cfg, ranks, **options)


def _raising_rank():
    from repro.launcher import launch

    def body(ctx):
        ctx.engine.sleep(1e-6 * (ctx.rank + 1))
        if ctx.rank == 2:
            raise ValueError("rank 2 gives up")
        ctx.engine.sleep(1.0)

    with pytest.raises(ValueError, match="rank 2 gives up"):
        launch(body, 4)


def _deadlock():
    from repro.launcher import launch

    with pytest.raises(DeadlockError):
        launch(lambda ctx: ctx.engine.block("never woken"), 4)


def _watchdog_timeout():
    from repro.launcher import launch

    def body(ctx):
        if ctx.rank:
            ctx.engine.block("never woken")

    with pytest.raises(SimTimeoutError):
        launch(body, 4, fault_plan="watchdog,timeout=1e-3")


def _elastic_run_that_loses_a_rank():
    report = _jacobi("elastic:gpushmem", iters=16,
                     fault_plan="crash,rank=1,at=1e-4;watchdog,timeout=5e-3", fault_seed=5)
    assert len([r for r in report if r is not None]) == 3


@pytest.mark.parametrize("run", [
    lambda: _jacobi("uniconn:gpushmem:PureDevice"), _raising_rank, _deadlock,
    _watchdog_timeout, _elastic_run_that_loses_a_rank,
], ids=["clean", "rank-raises", "deadlock", "watchdog", "elastic-crash"])
def test_no_thread_outlives_a_launch(run):
    before = threading.active_count()
    run()
    assert threading.active_count() == before


def test_device_kernel_tasks_run_on_recycled_threads(monkeypatch):
    """8 ranks x 6 PureDevice launches are 8 x 7 tasks; a kernel's thread
    is free again when the next-but-one launch needs one."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: (started.append(thread), start(thread))[1])
    report = _jacobi("uniconn:gpushmem:PureDevice", ranks=8)
    assert report.stats["tasks_spawned"] == 8 * 7
    assert len(started) <= 2 * 8 + 1


def test_a_recycled_thread_runs_under_its_current_tasks_name():
    eng = Engine()
    seen = []

    def body():
        seen.append((threading.current_thread().name, threading.get_ident()))
        if len(seen) == 3:
            raise RuntimeError(f"boom in {threading.current_thread().name}")

    def driver():
        for name in ("first", "second", "third"):
            eng.join(eng.spawn(body, name=name))

    eng.spawn(driver, name="driver")
    with pytest.raises(RuntimeError, match="boom in third"):
        eng.run()
    assert [name for name, _ in seen] == ["first", "second", "third"]
    assert len({ident for _, ident in seen}) == 1
    assert eng.stats.tasks_spawned == 4


def test_blocking_call_from_a_foreign_thread_is_rejected():
    eng = Engine()
    errors = []

    def foreign():
        try:
            eng.sleep(1.0)
        except EngineStateError as exc:
            errors.append(exc)

    def body():
        thread = threading.Thread(target=foreign)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        eng.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert len(errors) == 1 and "outside a simulated task" in str(errors[0])
    assert eng.now == 1.0


def test_spawn_and_finish_churn_under_a_short_switch_interval():
    """Parking and taking threads is only ever done by whoever holds the
    run token; with the interpreter switching threads every few bytecodes,
    a carrier handed over too early would run a task twice or never."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eng = Engine()
        ran = []

        def child(tag):
            eng.sleep(1e-3)
            ran.append(tag)

        def parent(rank):
            for wave in range(20):
                kids = [eng.spawn(lambda t=(rank, wave, k): child(t)) for k in range(3)]
                for kid in kids:
                    eng.join(kid)

        before = threading.active_count()
        for rank in range(8):
            eng.spawn(lambda r=rank: parent(r), name=f"rank{rank}")
        eng.run()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(r, w, k) for r in range(8) for w in range(20) for k in range(3)]
    assert eng.stats.tasks_spawned == 8 + 8 * 20 * 3
    assert threading.active_count() == before


# The cyclic collector is paused for the duration of Engine.run, and only
# for that: the caller's setting comes back on every way out.


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_tasks_run_with_the_collector_paused(collector_on):
    eng = Engine()
    seen = []

    def body():
        seen.append(gc.isenabled())
        eng.sleep(1.0)
        seen.append(gc.isenabled())

    eng.spawn(body)
    eng.run()
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("run", [_raising_rank, _deadlock, _watchdog_timeout],
                         ids=["rank-raises", "deadlock", "watchdog"])
def test_collector_state_is_restored_when_a_run_fails(collector_on, run):
    run()
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_finds_it_disabled(collector_on):
    gc.disable()
    eng = Engine()
    eng.spawn(lambda: eng.sleep(1.0))
    eng.run()
    assert not gc.isenabled()
    _raising_rank()
    assert not gc.isenabled()


def test_nested_and_concurrent_engines_leave_the_collector_enabled(collector_on):
    def inner():
        eng = Engine()
        eng.spawn(lambda: eng.sleep(1.0))
        eng.run()

    outer = Engine()
    outer.spawn(inner)  # an engine run from inside another engine's task
    outer.run()
    assert gc.isenabled()

    def host():
        for _ in range(20):
            inner()

    threads = [threading.Thread(target=host) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert gc.isenabled()
