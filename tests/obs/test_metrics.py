"""Metrics vs hand-computed traffic for a 2-rank ping-pong, per backend.

The byte counters account payload bytes only, so the expected totals are
exact: ``iters`` exchanges of ``COUNT`` float32 elements in each direction.
MPI's dissemination barrier moves zero-byte messages and GPUCCL's barrier
is a zero-payload allreduce, so neither perturbs the payload totals.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Communicator, Coordinator, Environment, Memory, launch
from repro.obs import MetricsRegistry, SeriesBy, size_class

COUNT = 256  # float32 elements -> 1024 B per message, size class <=4KiB
ITERS = 5
NBYTES = COUNT * 4


def _pingpong(ctx, backend):
    with Environment(ctx, backend=backend) as env:
        env.set_device(env.node_rank())
        with Communicator(env) as comm:
            stream = env.device.create_stream()
            coord = Coordinator(env, stream=stream)
            peer = 1 - comm.global_rank()

            send = Memory.alloc(env, COUNT, dtype=np.float32)
            recv = Memory.alloc(env, COUNT, dtype=np.float32)
            sig = (Memory.alloc(env, 1, dtype=np.uint64)
                   if env.backend.supports_device_api else None)
            send.write(np.full(COUNT, float(comm.global_rank()), np.float32))
            comm.barrier(stream=stream)

            for it in range(ITERS):
                coord.comm_start()
                coord.post(send, recv, COUNT, sig, it + 1, peer, comm)
                coord.acknowledge(recv, COUNT, sig, it + 1, peer, comm)
                coord.comm_end()
            stream.synchronize()
            comm.barrier(stream=stream)
            return float(recv.read()[0])


def _run(backend):
    return launch(_pingpong, 2, args=(backend,))


def test_size_class_boundaries():
    assert size_class(0) == "<=256B"
    assert size_class(256) == "<=256B"
    assert size_class(257) == "<=4KiB"
    assert size_class(NBYTES) == "<=4KiB"
    assert size_class(64 * 1024) == "<=64KiB"
    assert size_class(2 << 20) == ">1MiB"


def test_mpi_bytes_match_hand_count():
    report = _run("mpi")
    m = report.metrics
    # 2 ranks x ITERS posts, each one eager send of NBYTES.
    assert m.counter_total("mpi_bytes_total") == 2 * ITERS * NBYTES
    assert m.counter_total("mpi_messages_total", size="<=4KiB") == 2 * ITERS
    # Every payload message was eager at this size.
    assert m.counter_total("mpi_messages_total", protocol="rdv", size="<=4KiB") == 0
    assert m.counter_total("uniconn_calls_total", op="post") == 2 * ITERS


def test_gpuccl_bytes_match_hand_count():
    report = _run("gpuccl")
    m = report.metrics
    assert m.counter_total("gpuccl_bytes_total") == 2 * ITERS * NBYTES
    assert m.counter_total("gpuccl_messages_total", size="<=4KiB") == 2 * ITERS
    # Each comm_start/comm_end pair fuses this rank's send+recv into one
    # group of 2 ops; the barrier collectives don't enter the histogram.
    hist = m.histogram("gpuccl_group_size", rank=0)
    assert hist["count"] == ITERS
    assert hist["min"] == hist["max"] == 2


def test_gpushmem_bytes_match_hand_count():
    report = _run("gpushmem")
    m = report.metrics
    assert m.counter_total("shmem_bytes_total", op="put") == 2 * ITERS * NBYTES
    assert m.counter_total("shmem_puts_total", size="<=4KiB") == 2 * ITERS
    # One signal wait per acknowledge, stream-ordered.
    assert m.counter_total("shmem_signal_waits_total", kind="stream") == 2 * ITERS


def test_obs_off_collects_nothing():
    report = launch(_pingpong, 2, args=("mpi",), obs="off")
    assert report.metrics.counter_total("mpi_bytes_total") == 0
    assert not report.metrics.as_dict()["counters"]


def test_registry_primitives():
    m = MetricsRegistry()
    m.inc("x", 2, a=1)
    m.inc("x", 3, a=1)
    m.inc("x", 5, a=2)
    assert m.counter("x", a=1) == 5
    assert m.counter_total("x") == 10
    m.set_gauge("g", 7, q="d")
    m.set_gauge("g", 3, q="d")
    assert m.gauge("g", q="d") == 3
    assert m.gauge_high_water("g", q="d") == 7
    m.observe("h", 0.5)
    m.observe("h", 2.0)
    hist = m.histogram("h")
    assert hist["count"] == 2 and hist["min"] == 0.5 and hist["max"] == 2.0
    d = m.as_dict()
    assert d["counters"]["x{a=1}"] == 5
    assert d["gauges"]["g{q=d}"] == {"last": 3, "max": 7}


# --------------------------------------------------------------------- #
# Bound series vs the keyword spelling: one storage, one dump.
# --------------------------------------------------------------------- #

_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "observe"}
_KEYWORD = {"counter": "inc", "gauge": "set_gauge", "histogram": "observe"}

_labels = st.fixed_dictionaries({}, optional={
    "rank": st.integers(0, 2),
    "backend": st.sampled_from(["mpi", "gpuccl"]),
    "size": st.sampled_from(["<=256B", ">1MiB"]),
})
_value = (st.integers(-3, 1 << 40) | st.sampled_from([0, 0.0, 1, 1e-7, 2.5])
          | st.floats(-1e6, 1e15, allow_nan=False))
_update = st.tuples(st.sampled_from(sorted(_UPDATE)), st.sampled_from(["a_total", "b", "c_seconds"]),
                    _labels, _value, st.booleans())


def _replay(updates, idle=(), enabled=True):
    """``updates`` through the keyword spelling alone, and again with the
    ones flagged ``bound`` going through (reused) handles, next to handles
    bound for ``idle`` series that are never updated."""
    plain, mixed = MetricsRegistry(enabled), MetricsRegistry(enabled)
    handles = {}
    for kind, name, labels in idle:
        getattr(mixed, f"bind_{kind}")(name, **labels)
    for kind, name, labels, value, bound in updates:
        getattr(plain, _KEYWORD[kind])(name, value, **labels)
        if bound:
            key = (kind, name, tuple(sorted(labels.items())))
            if key not in handles:
                handles[key] = getattr(mixed, f"bind_{kind}")(name, **labels)
            getattr(handles[key], _UPDATE[kind])(value)
        else:
            getattr(mixed, _KEYWORD[kind])(name, value, **labels)
    return plain, mixed


@settings(max_examples=150, deadline=None)
@given(st.lists(_update, max_size=30),
       st.lists(st.tuples(st.sampled_from(sorted(_UPDATE)), st.just("idle"), _labels), max_size=3))
def test_bound_handles_and_keywords_share_one_storage(updates, idle):
    plain, mixed = _replay(updates, idle)
    dump = plain.as_dict()
    assert mixed.as_dict() == dump
    assert json.dumps(mixed.as_dict()) == json.dumps(dump)  # 1 vs 1.0 matters
    assert not any("idle" in series for section in dump.values() for series in section)
    assert MetricsRegistry.from_dict(dump).as_dict() == dump

    plain, mixed = _replay(updates, idle, enabled=False)
    assert plain.as_dict() == mixed.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_series_appear_with_their_first_update_not_their_binding():
    m = MetricsRegistry()
    bound = m.bind_counter("x", rank=0)
    gauge = m.bind_gauge("g")
    hist = m.bind_histogram("h")
    assert m.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert m.counter("x", rank=0) == 0 and m.gauge("g") == 0 and m.histogram("h") == {}
    bound.inc(0.0)  # a zero is an update: the series exists from here on
    m.inc("y", 0)
    assert m.as_dict()["counters"] == {"x{rank=0}": 0.0, "y": 0}
    assert m.bind_counter("x", rank=0) is bound
    m.inc("x", 2, rank=0)
    gauge.set(4)
    gauge.set(1)
    hist.observe(3.0)
    assert m.counter("x", rank=0) == bound.value == 2.0
    assert m.as_dict()["gauges"] == {"g": {"last": 1, "max": 4}}
    assert m.histogram("h")["buckets"] == {"10": 1}
    by_rank = SeriesBy(m.bind_counter, "z", "rank", backend="mpi")
    by_rank[1].inc(5)
    assert by_rank[1] is m.bind_counter("z", backend="mpi", rank=1)
    assert m.counter("z", rank=1, backend="mpi") == 5
    by_two = SeriesBy(m.bind_gauge, "q", "queue", "rank")
    by_two["posted", 2].set(3)
    assert m.gauge("q", rank=2, queue="posted") == 3 and list(by_two) == [("posted", 2)]


def _decade_reference(value: float) -> str:
    """The bucket rule as it was first written: multiply up from 1e-9."""
    if value <= 0:
        return "0"
    edge = 1e-9
    while edge < value and edge < 1e12:
        edge *= 10.0
    return f"{edge:g}"


def test_histogram_buckets_are_the_decades_they_always_were():
    powers = [10.0 ** k for k in range(-12, 14)]
    values = [0, 0.0, -1.0, -1e-30, float("inf")]
    for p in powers:
        values += [p, p * (1 - 1e-15), p * (1 + 1e-15), 3.3 * p, float(f"1e{round(np.log10(p))}")]
    edge = 1e-9
    for _ in range(24):  # the edges themselves, rounding included
        values += [edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)]
        edge *= 10.0
    for value in values:
        m = MetricsRegistry()
        m.observe("h", value)
        assert list(m.histogram("h")["buckets"]) == [_decade_reference(value)], value
