"""Unit tests for simulated synchronization primitives."""

import pytest

from repro.errors import DeadlockError
from repro.sim import Broadcast, Counter, Engine, SimEvent, wait_until


def test_event_set_before_wait_is_nonblocking():
    eng = Engine()
    out = []

    def body():
        ev = SimEvent(eng)
        ev.set()
        ev.wait()
        out.append(eng.now)

    eng.spawn(body)
    eng.run()
    assert out == [0.0]


def test_event_wakes_waiter_at_set_time():
    eng = Engine()
    ev = None
    out = []

    def setter():
        eng.sleep(2.0)
        ev.set()

    def waiter():
        ev.wait()
        out.append(eng.now)

    ev = SimEvent(eng)
    eng.spawn(waiter)
    eng.spawn(setter)
    eng.run()
    assert out == [2.0]


def test_event_set_is_idempotent():
    eng = Engine()

    def body():
        ev = SimEvent(eng)
        ev.set()
        ev.set()
        assert ev.is_set()

    eng.spawn(body)
    eng.run()


def test_event_multiple_waiters_all_wake():
    eng = Engine()
    ev = None
    out = []

    def waiter(tag):
        def body():
            ev.wait()
            out.append(tag)

        return body

    def setter():
        eng.sleep(1.0)
        ev.set()

    ev = SimEvent(eng)
    eng.spawn(waiter("a"))
    eng.spawn(waiter("b"))
    eng.spawn(setter)
    eng.run()
    assert sorted(out) == ["a", "b"]


def test_broadcast_wait_until_predicate():
    eng = Engine()
    state = {"v": 0}
    bc = Broadcast(eng)
    out = []

    def producer():
        for _ in range(5):
            eng.sleep(1.0)
            state["v"] += 1
            bc.notify_all()

    def consumer():
        wait_until(bc, lambda: state["v"] >= 3)
        out.append((state["v"], eng.now))

    eng.spawn(consumer)
    eng.spawn(producer)
    eng.run()
    assert out == [(3, 3.0)]


def test_counter_wait_for_threshold():
    eng = Engine()
    ctr = Counter(eng)
    out = []

    def bumper():
        for _ in range(10):
            eng.sleep(0.1)
            ctr.add(1)

    def waiter():
        v = ctr.wait_for(lambda x: x >= 7)
        out.append((v, round(eng.now, 6)))

    eng.spawn(waiter)
    eng.spawn(bumper)
    eng.run()
    assert out == [(7, 0.7)]


def test_counter_set_overwrites():
    eng = Engine()
    ctr = Counter(eng, initial=5)

    def body():
        ctr.set(99)
        assert ctr.value == 99

    eng.spawn(body)
    eng.run()


def test_waiting_on_never_set_event_deadlocks():
    eng = Engine()
    ev = SimEvent(eng, name="never")

    eng.spawn(ev.wait, name="w")
    with pytest.raises(DeadlockError, match="event:never"):
        eng.run()


def test_a_completed_rendezvous_holds_no_predicate():
    """The notify its members proceed on is a gather's last, so nothing ever
    sweeps their finished waiters out of the slot's broadcast: they must
    hold nothing themselves — not the predicate, whose closure pins the
    slot and every payload, and not the task."""
    from repro.backends.rendezvous import RendezvousBoard

    eng = Engine()
    board = RendezvousBoard(eng)
    proceeded = []

    def member(i):
        eng.sleep(1e-3 * (4 - i))  # arrive in reverse rank order
        payloads = board.gather("boot", i, 4, payload=bytearray(16))
        proceeded.append((i, sorted(payloads)))

    for i in range(4):
        eng.spawn(lambda i=i: member(i), name=f"m{i}")
    eng.run()
    # The last arrival never waits; the others wake in registration order.
    assert proceeded == [(i, [0, 1, 2, 3]) for i in (0, 3, 2, 1)]
    left = board._slots["boot"].bcast._waiters
    assert len(left) == 3 and all(w.done for w in left)
    assert all(w.predicate is None and w.task is None for w in left)
