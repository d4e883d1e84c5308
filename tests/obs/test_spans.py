"""Span emission and Chrome-trace B/E well-formedness.

At obs level "spans" every Coordinator/Communicator operation brackets its
work in span.begin/span.end records; the Chrome exporter renders them as
duration slices that must nest per (pid, tid) track. At the default level
no span records may appear at all (that is what keeps default traces
byte-identical).
"""

import numpy as np
import pytest

from repro import Communicator, Coordinator, Environment, Memory, launch
from repro.sim import Tracer
from repro.sim.chrometrace import to_chrome_trace


def _workload(ctx, backend):
    with Environment(ctx, backend=backend) as env:
        env.set_device(env.node_rank())
        with Communicator(env) as comm:
            stream = env.device.create_stream()
            coord = Coordinator(env, stream=stream)
            peer = 1 - comm.global_rank()

            send = Memory.alloc(env, 16, dtype=np.float32)
            recv = Memory.alloc(env, 16, dtype=np.float32)
            sig = (Memory.alloc(env, 1, dtype=np.uint64)
                   if env.backend.supports_device_api else None)
            send.write(np.full(16, float(comm.global_rank()), np.float32))
            comm.barrier(stream=stream)

            coord.comm_start()
            coord.post(send, recv, 16, sig, 1, peer, comm)
            coord.acknowledge(recv, 16, sig, 1, peer, comm)
            coord.comm_end()

            total = Memory.alloc(env, 1, dtype=np.float32)
            mine = Memory.alloc(env, 1, dtype=np.float32)
            mine.write([float(comm.global_rank())])
            coord.all_reduce(mine, total, 1, "sum", comm)
            stream.synchronize()
            return float(total.read()[0])


def _trace(backend, obs):
    tracer = Tracer()
    launch(_workload, 2, args=(backend,), tracer=tracer, obs=obs)
    return tracer


@pytest.mark.parametrize("backend", ["mpi", "gpuccl", "gpushmem"])
def test_span_records_only_at_spans_level(backend):
    kinds_default = {r.kind for r in _trace(backend, "metrics").records}
    assert not {"span.begin", "span.end"} & kinds_default
    kinds_spans = {r.kind for r in _trace(backend, "spans").records}
    assert {"span.begin", "span.end"} <= kinds_spans


@pytest.mark.parametrize("backend", ["mpi", "gpuccl", "gpushmem"])
def test_spans_without_a_tracer_are_the_metrics_run(backend):
    """A span is a record in a tracer. With no tracer there is nothing to
    record, so the run must schedule and cost exactly like obs="metrics";
    it used to turn every deferred charge eager for a trace nobody kept."""
    metrics = launch(_workload, 2, args=(backend,), obs="metrics")
    spans = launch(_workload, 2, args=(backend,), obs="spans")
    assert spans.stats["switches"] == metrics.stats["switches"]
    assert spans.stats == metrics.stats
    assert spans.metrics.as_dict() == metrics.metrics.as_dict()


@pytest.mark.parametrize("backend", ["mpi", "gpuccl", "gpushmem"])
def test_chrome_trace_be_events_nest(backend):
    events = to_chrome_trace(_trace(backend, "spans"))
    stacks = {}
    be = 0
    for e in events:
        if e["ph"] not in ("B", "E"):
            continue
        be += 1
        stack = stacks.setdefault((e["pid"], e["tid"]), [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            assert stack, f"E event {e['name']!r} with empty stack on {e['pid']}/{e['tid']}"
            top = stack.pop()
            assert top == e["name"], f"mismatched nesting: B {top!r} closed by E {e['name']!r}"
    assert be > 0
    for track, stack in stacks.items():
        assert stack == [], f"unclosed spans {stack} on track {track}"


def test_expected_span_names_present():
    events = to_chrome_trace(_trace("mpi", "spans"))
    names = {e["name"] for e in events if e["ph"] == "B"}
    assert {"post", "acknowledge", "comm_group", "barrier", "all_reduce"} <= names
    # Span slices carry their category for the trace viewer.
    cats = {e["cat"] for e in events if e["ph"] == "B"}
    assert "comm" in cats and "sync" in cats


def test_post_span_nests_inside_comm_group():
    events = to_chrome_trace(_trace("mpi", "spans"))
    open_groups = {}
    saw_nested_post = False
    for e in events:
        if e["ph"] == "B" and e["name"] == "comm_group":
            open_groups[e["pid"]] = True
        elif e["ph"] == "E" and e["name"] == "comm_group":
            open_groups[e["pid"]] = False
        elif e["ph"] == "B" and e["name"] == "post":
            saw_nested_post |= open_groups.get(e["pid"], False)
    assert saw_nested_post
