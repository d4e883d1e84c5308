"""Tests for tracing and the Chrome-trace export."""

import json

import numpy as np

from repro.apps.jacobi import JacobiConfig, launch_variant
from repro.launcher import launch
from repro.sim import Tracer, to_chrome_trace, write_chrome_trace


def traced_jacobi(variant="uniconn:gpuccl", nranks=2):
    tracer = Tracer()
    cfg = JacobiConfig(nx=16, ny=18, iters=2, warmup=0)

    def main(ctx):
        from repro.apps.jacobi import run_variant

        return run_variant(ctx, variant, cfg)

    launch(main, nranks, tracer=tracer)
    return tracer


def test_tracer_collects_stream_and_mpi_events():
    tracer = traced_jacobi("uniconn:mpi")
    kinds = {r.kind for r in tracer.records}
    assert "stream.enqueue" in kinds
    assert "stream.start" in kinds
    assert "stream.complete" in kinds
    assert "mpi.send" in kinds and "mpi.recv" in kinds


def test_trace_times_monotone_per_stream():
    tracer = traced_jacobi()
    last = {}
    for rec in tracer.of_kind("stream.complete"):
        key = (rec.fields.get("gpu"), rec.fields.get("stream"))
        assert rec.t >= last.get(key, 0.0)
        last[key] = rec.t


def test_start_complete_pairs_balance():
    tracer = traced_jacobi()
    starts = len(tracer.of_kind("stream.start"))
    completes = len(tracer.of_kind("stream.complete"))
    assert starts >= completes > 0
    assert starts - completes <= 4  # at most the in-flight tail


def test_mpi_send_records_protocol():
    tracer = traced_jacobi("uniconn:mpi")
    protocols = {r.fields["protocol"] for r in tracer.of_kind("mpi.send")}
    assert protocols <= {"eager", "rdv"}
    assert protocols  # at least one message traced


def test_chrome_trace_structure():
    tracer = traced_jacobi()
    events = to_chrome_trace(tracer)
    assert events
    durations = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert durations and instants
    for e in durations:
        assert e["dur"] >= 0
        assert e["cat"] == "stream"
        assert isinstance(e["ts"], float)


def test_chrome_trace_written_as_valid_json(tmp_path):
    tracer = traced_jacobi()
    path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    assert "traceEvents" in doc
    assert len(doc["traceEvents"]) > 10
    assert text == json.dumps({"traceEvents": to_chrome_trace(tracer)})


def test_chrome_trace_order_is_canonical_under_ties():
    """Many events on one timestamp: the file does not depend on the order
    the records were emitted in, and its order is the one a single sort on
    (ts, () for an instant or (rank, per-rank span seq) for a span, full
    content) gives — the sort the writer used to do for every event and
    now does only inside the ties."""
    import random

    records = []
    for i in range(48):  # instants, eight to a timestamp, all distinct
        records.append(("mpi.send", (i // 8) * 1e-6,
                        dict(src=i % 3, dst=i % 5, tag=i % 2, nbytes=i)))
    for i in range(24):  # zero-length spans sharing those timestamps
        t, rank, seq = (i // 6) * 1e-6, i % 2, i // 2
        records.append(("span.begin", t, dict(name=f"s{i % 4}", rank=rank, seq=2 * seq + 1)))
        records.append(("span.end", t, dict(name=f"s{i % 4}", rank=rank, seq=2 * seq + 2)))
    for i in range(6):  # spans without a seq tie on (ts, (rank, 0))
        records.append(("span.begin", 1e-6, dict(name=f"u{i}", rank=i % 3)))

    def trace_of(order):
        tracer = Tracer()
        for kind, t, fields in order:
            tracer(kind, t=t, **fields)
        return to_chrome_trace(tracer)

    events = trace_of(records)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(records)
        assert trace_of(records) == events

    def one_key(e):
        seq = (e["pid"], e["args"].get("seq", 0)) if e["ph"] in "BE" else ()
        return e["ts"], seq, json.dumps(e, sort_keys=True)

    assert sorted(rng.sample(events, len(events)), key=one_key) == events


def test_rocshmem_experimental_enables_gpushmem_on_lumi():
    """Paper future work: rocSHMEM as GpushmemBackend on AMD GPUs."""
    from repro.apps.jacobi import assemble, serial_jacobi
    from repro.hardware import lumi

    cfg = JacobiConfig(nx=16, ny=18, iters=3, warmup=1)
    spec = lumi(enable_rocshmem=True)
    assert spec.has_gpushmem()
    assert any("rocSHMEM" in n for n in spec.notes)
    results = launch_variant("uniconn:gpushmem:PureDevice", cfg, 8, machine=spec, collect=True)
    np.testing.assert_array_equal(assemble(cfg, results), serial_jacobi(cfg, iters=4))
    # Default LUMI remains without GPUSHMEM, as in Table I.
    assert not lumi().has_gpushmem()
