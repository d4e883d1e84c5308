"""The Chrome exporter and the span analyzer equal their first versions
(``tests/obs/reference_postrun.py``) on generated record streams: the same
JSON text byte for byte, the same analysis value for value.

A stream mixes several ranks' spans — nested, same-named, closed out of
order, with a repeated ``seq``, ends without a begin, begins never closed,
GPUs named by more than one rank — with stream
``start``/``complete`` pairs (some unfinished, some ``event:`` markers, some
completes without a start) and point records, on a handful of timestamps so
that events of different ranks tie. Field values include bools, None and
containers, which ``args`` must drop.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs import analyze_records
from repro.sim import TraceRecord, Tracer, to_chrome_trace
from tests.obs.reference_postrun import analyze_records as reference_analyze
from tests.obs.reference_postrun import to_chrome_trace as reference_export

STEPS = st.sampled_from([0.0, 0.0, 1e-6, 1.5e-6, 2e-6])
VALUES = st.one_of(st.integers(-2, 9), st.booleans(), st.none(), st.just(1.5),
                   st.sampled_from(["x", "mpi", ""]), st.just([1, 2]),
                   st.just({"k": 1}), st.just((3,)))
EXTRA = st.dictionaries(st.sampled_from(["nbytes", "root", "backend", "flag"]), VALUES,
                        max_size=3)
NAMES = st.sampled_from(["post", "barrier", "launch:k", ""])
ACTION = st.tuples(
    st.integers(0, 3),  # the rank (or GPU) it happens on
    st.sampled_from(["open", "open", "close", "close", "stray", "op", "op", "point"]),
    STEPS, NAMES, st.sampled_from(["comm", "sync", "dispatch", "host"]),
    st.sampled_from(["kernel", "gpuccl-ar", "mpi-send", "shmem-put", "event:e"]),
    st.integers(0, 6),  # gpu of a span (5, 6: none, another rank's), an op's length
    st.one_of(st.integers(-1, 4), st.none(), st.just("1")),  # peer
    EXTRA)


def _records(actions):
    """Per-rank span programs (each rank's clock only moves forward, so
    ranks tie often) interleaved with stream ops and point records."""
    clock, stacks, seq = {}, {}, {}
    out = []
    for rank, action, step, name, cat, op, n, peer, extra in actions:
        t = clock[rank] = clock.get(rank, 0.0) + step
        stack = stacks.setdefault(rank, [])
        if action in ("open", "close", "stray"):
            if action == "close":
                if not stack:
                    continue
                # Mostly the innermost span; sometimes one further out.
                name = stack.pop(-1 - n % len(stack) if n == 6 else -1)
            elif action == "open":
                stack.append(name)
            seq[rank] = seq.get(rank, 0) + 1
            gpu = {5: None, 6: (rank + 1) % 4}.get(n, rank)
            fields = {"name": name, "cat": cat, "seq": seq[rank] if n != 4 else 1,
                      "rank": rank, "gpu": gpu, "peer": peer, **extra}
            if n == 3:
                fields["tid"] = "t1"
            kind = "span.begin" if action == "open" else "span.end"
            out.append(TraceRecord(kind, t, fields))
        elif action == "op":
            key = {"gpu": rank, "stream": "s%d" % (n % 2), "op": op}
            if n != 5:  # a complete without its start
                out.append(TraceRecord("stream.start", t, dict(key)))
            if n != 6:  # an op still in flight at the end
                out.append(TraceRecord("stream.complete", t + n * 1e-6,
                                       {**key, "peer": peer, **extra}))
        else:
            out.append(TraceRecord("mpi.send", t, {"src": rank, "dst": peer, **extra}))
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(actions=st.lists(ACTION, max_size=40),
       n_ranks=st.one_of(st.none(), st.integers(1, 5)),
       total_time=st.one_of(st.none(), st.sampled_from([3e-6, 1e-5])))
def test_export_and_analysis_equal_the_reference(actions, n_ranks, total_time):
    tracer = Tracer(_records(actions))
    assert (json.dumps({"traceEvents": to_chrome_trace(tracer)})
            == json.dumps({"traceEvents": reference_export(tracer)}))
    assert (analyze_records(tracer.records, n_ranks=n_ranks, total_time=total_time).as_dict()
            == reference_analyze(tracer.records, n_ranks=n_ranks,
                                 total_time=total_time).as_dict())
