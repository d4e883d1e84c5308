"""Engine/runtime edge cases not covered elsewhere."""

import threading

import pytest

from repro.errors import EngineStateError
from repro.sim import Engine, Tracer, to_chrome_trace


def test_spawn_after_finish_rejected():
    eng = Engine()
    eng.spawn(lambda: None)
    eng.run()
    with pytest.raises(EngineStateError, match="finished"):
        eng.spawn(lambda: None)


def test_engine_with_no_tasks_completes_instantly():
    eng = Engine()
    eng.run()
    assert eng.now == 0.0


def test_block_outside_task_rejected():
    eng = Engine()
    with pytest.raises(EngineStateError):
        eng.block("nothing")


def test_sleep_zero_is_legal_and_reschedules():
    eng = Engine()
    order = []

    def a():
        order.append("a1")
        eng.sleep(0.0)
        order.append("a2")

    def b():
        order.append("b1")

    eng.spawn(a, name="a")
    eng.spawn(b, name="b")
    eng.run()
    # a yields at sleep(0): b runs before a resumes.
    assert order == ["a1", "b1", "a2"]


def test_chrome_trace_handles_unfinished_ops():
    """An op still in flight when tracing stops appears as a marker."""
    tracer = Tracer()
    tracer("stream.start", t=1.0, gpu=0, stream="s", op="orphan")
    events = to_chrome_trace(tracer)
    assert any("unfinished" in e["name"] for e in events)


def test_trace_hook_absent_is_noop():
    eng = Engine()
    eng.spawn(lambda: eng.trace("anything", x=1))
    eng.run()  # must not raise


def test_tracer_callable_records_fields():
    tracer = Tracer()
    tracer("custom.kind", t=2.5, alpha=1, beta="x")
    assert tracer.records[0].kind == "custom.kind"
    assert tracer.records[0].t == 2.5
    assert tracer.records[0].fields == {"alpha": 1, "beta": "x"}


# A timer callback acts for no task: its error is the run's failure.


def _boom():
    raise ValueError("boom")


def _run_guarded(eng, seconds=10.0):
    """``eng.run()`` on a helper thread; the exception it raised, or a
    failure if it has not returned within ``seconds`` of wall clock."""
    outcome = []

    def drive():
        try:
            eng.run()
            outcome.append(None)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "Engine.run() hung after a timer callback raised"
    return outcome[0]


def test_raising_callback_after_the_last_task_fails_the_run():
    eng = Engine()
    eng.spawn(lambda: eng.schedule(1.0, _boom), name="t0")
    error = _run_guarded(eng)
    assert isinstance(error, ValueError) and str(error) == "boom"


def test_raising_callback_is_not_delivered_to_a_sleeping_task():
    eng = Engine()
    caught = []

    def sleeper():
        try:
            eng.sleep(2.0)
        except ValueError as exc:  # the callback's error is not this task's
            caught.append(exc)

    eng.spawn(lambda: eng.schedule(1.0, _boom), name="arm")
    eng.spawn(sleeper, name="sleeper")
    error = _run_guarded(eng)
    assert isinstance(error, ValueError) and str(error) == "boom"
    assert caught == []
