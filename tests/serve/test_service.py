"""JobService end-to-end: caching, bit-identity, dedup, queue loop, CLI."""

import io
import json
import types

import pytest

from repro.serve import JobService, JobSpec, ResultStore
from repro.serve.runner import execute_job
from repro.serve.service import parse_queue_line

#: Small-but-real specs: two ranks, 16x18 grid, a handful of iterations.
SPECS = [
    JobSpec(app="jacobi", backend="mpi", ranks=2, size=16, iters=2),
    JobSpec(app="jacobi", backend="gpuccl", ranks=2, size=16, iters=2),
]


def test_fresh_run_then_full_cache_hit(tmp_path):
    first = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    fresh = first.run(SPECS)
    assert all(d["status"] == "done" for d in fresh)
    assert first.summary()["jobs"]["done"] == 2
    assert first.summary()["cache"]["hits"] == 0

    # A brand-new service over the same store: 100% cache hits, no pool.
    second = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    cached = second.run(SPECS)
    assert second.summary()["cache"]["hits"] == 2
    assert second.summary()["jobs"]["done"] == 0  # nothing executed
    for f, c in zip(fresh, cached):
        assert c["config_hash"] == f["config_hash"]


def test_cached_result_bit_identical_to_fresh(tmp_path):
    """The cached document body equals an independent fresh execution."""
    spec = SPECS[0]
    svc = JobService(ResultStore(tmp_path), jobs=1, retries=0)
    (doc,) = svc.run([spec])
    fresh = execute_job(spec.to_dict())
    # The envelope stamps (wall_s, attempts, stored_at_unix) are run
    # metadata; everything the simulation produced must match bit-for-bit.
    body = {k: v for k, v in doc.items()
            if k not in ("wall_s", "attempts", "stored_at_unix")}
    assert json.dumps(body, sort_keys=True) == json.dumps(fresh, sort_keys=True)

    (cached,) = JobService(ResultStore(tmp_path)).run([spec])
    cached_body = {k: v for k, v in cached.items()
                   if k not in ("wall_s", "attempts", "stored_at_unix")}
    assert json.dumps(cached_body, sort_keys=True) == \
        json.dumps(fresh, sort_keys=True)


def test_env_coll_table_does_not_leak_into_results(tmp_path, monkeypatch):
    """coll=None means untuned at every layer: the variable that used to
    install an ambient tuning table changes neither a ``launch()`` nor a
    served job (nothing in ``src/`` reads it; tests/test_options.py)."""
    from repro.apps.osu import OsuConfig, run_collective
    from repro.coll import CollTuner

    spec = JobSpec(app="jacobi", backend="gpuccl", ranks=4, size=16, iters=2)
    cfg = OsuConfig(sizes=(64, 1 << 20), iters_small=2, warmup_small=1,
                    iters_large=2, warmup_large=1, repeats=1)

    def results():
        return (execute_job(spec.to_dict()),
                run_collective("gpuccl", "all_reduce", cfg, gpus=8, coll=None))

    # (in two halves: a grep for the retired name should find only history)
    variable = "REPRO_COLL" + "_TABLE"
    monkeypatch.delenv(variable, raising=False)
    plain = results()
    table = tmp_path / "table.json"
    CollTuner(spec.machine, 8).build_table().save(str(table))
    monkeypatch.setenv(variable, str(table))
    assert results() == plain
    # The table itself is not inert: named explicitly, it moves the sweep.
    assert run_collective("gpuccl", "all_reduce", cfg, gpus=8,
                          coll=str(table)) != plain[1]


def test_in_batch_duplicates_run_once(tmp_path):
    svc = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    spec = SPECS[0]
    same = JobSpec.from_dict(dict(reversed(list(spec.to_dict().items()))))
    docs = svc.run([spec, same, spec])
    assert svc.summary()["jobs"]["done"] == 1  # one execution
    assert svc.summary()["cache"]["hits"] == 2  # two dedup-served copies
    assert docs[0] is docs[1] is docs[2] or all(
        d["config_hash"] == docs[0]["config_hash"] for d in docs)


def test_timeout_fails_job_without_poisoning_batch(tmp_path):
    """A job killed by the per-job timeout surfaces as failed while the
    rest of the batch completes; the failure is persisted but never
    served as a cache hit."""
    big = JobSpec(app="jacobi", backend="mpi", ranks=4, size=256, iters=400)
    events = []
    svc = JobService(ResultStore(tmp_path), jobs=2, timeout=0.05, retries=1,
                     events=events.append)
    docs = svc.run([big, SPECS[0]])
    # With a 50ms budget the large job cannot finish; the small one can
    # only complete (it shares the same tight timeout, so tolerate both).
    assert docs[0]["status"] == "failed"
    assert docs[0]["error_kind"] == "timeout"
    assert docs[0]["attempts"] == 2  # one retry, counted
    assert svc.summary()["retries"] >= 1
    assert svc.summary()["worker_respawns"] >= 1
    # The stored failure is a miss next time -> the job would rerun.
    assert ResultStore(tmp_path).get(big.config_hash()) is None
    assert ResultStore(tmp_path).peek(big.config_hash())["status"] == "failed"


def test_an_unwritable_store_fails_each_job_not_the_batch(tmp_path):
    """A store root that is a regular file: both jobs simulate, neither can
    be written, and the CLI still prints both results, writes the JSON and
    exits nonzero."""
    root = tmp_path / "store"
    root.write_text("not a directory")
    out_json = tmp_path / "docs.json"
    code, text = run_cli(["submit", "--store", str(root), "--json", str(out_json),
                          "--sweep", "backend=mpi,gpuccl", "app=jacobi", "gpus=2",
                          "size=32", "iters=2"])
    assert code == 1
    docs = json.loads(out_json.read_text())
    assert [d["status"] for d in docs] == ["failed", "failed"]
    assert {d["error_kind"] for d in docs} == {"store"}
    assert all("Not a directory" in d["error"] for d in docs)
    assert text.count("ERR ") == 2
    assert root.read_text() == "not a directory"


def test_a_failed_put_fails_only_its_own_job(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    bad = SPECS[1].config_hash()
    put = ResultStore.put

    def failing_put(self, doc):
        if doc["config_hash"] == bad:
            raise OSError(28, "No space left on device")
        return put(self, doc)

    monkeypatch.setattr(ResultStore, "put", failing_put)
    events = []
    docs = JobService(store, jobs=1, retries=0, events=events.append).run(SPECS)
    assert docs[0]["status"] == "done" and store.get(docs[0]["config_hash"]) is not None
    assert docs[1]["status"] == "failed" and docs[1]["error_kind"] == "store"
    assert docs[1]["config_hash"] == bad and "No space left" in docs[1]["error"]
    assert [e["job"] for e in events if e["event"] == "failed"] == [1]
    assert store.peek(bad) is None


def test_a_put_that_fails_leaves_no_temporary_file(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    doc = {"config_hash": SPECS[0].config_hash(), "status": "done"}

    def no_rename(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr("repro.serve.store.os.replace", no_rename)
    with pytest.raises(OSError, match="cross-device"):
        store.put(doc)
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == []


def test_serve_loop_once_drains_queue_file(tmp_path):
    queue = tmp_path / "queue.jsonl"
    queue.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        + json.dumps(SPECS[0].to_dict()) + "\n"
        + json.dumps({"sweep": {"backend": ["mpi", "gpuccl"]},
                      "defaults": {"app": "jacobi", "ranks": 2,
                                   "size": 16, "iters": 2}}) + "\n")
    svc = JobService(ResultStore(tmp_path / "store"), jobs=2, retries=0)
    n = svc.serve_loop(queue, once=True)
    assert n == 3
    # The sweep's mpi point duplicates the plain line -> one execution.
    assert svc.summary()["jobs"]["done"] == 2
    assert len(ResultStore(tmp_path / "store")) == 2


BAD_LINES = [
    "not json",
    "[1, 2]",
    '{"app": "jacobi", "workers": 4}',
    '{"ranks": "2"}',
    '{"coll": "ring/0"}',
    '{"sweep": [1], "defaults": {}}',
    '{"sweep": {"size": [16]}, "defaults": 3}',
    '{"sweep": {"size": []}}',
    json.dumps({"sweep": {"seed": list(range(1000)), "iters": list(range(1, 1001)),
                          "size": list(range(8, 1008))}}),  # 10^9 points
]


def test_a_malformed_queue_line_costs_exactly_that_line(tmp_path):
    """Every bad line is one ``rejected`` event with its line number and
    one count; the jobs around it run, whatever kind of bad it is."""
    good = [json.dumps(spec.to_dict()) for spec in SPECS]
    queue = tmp_path / "queue.jsonl"
    queue.write_bytes(("\n".join([good[0], *BAD_LINES, good[1]]) + "\n").encode()
                      + b"\xff\xfe not utf-8\n")
    events = []
    svc = JobService(ResultStore(tmp_path / "store"), jobs=1, retries=0,
                     events=events.append)
    assert svc.serve_loop(queue, once=True) == 2
    rejected = [e for e in events if e["event"] == "rejected"]
    assert [e["line"] for e in rejected] == list(range(2, len(BAD_LINES) + 2)) \
        + [len(BAD_LINES) + 3]
    assert all(e["error"] for e in rejected)
    assert svc.summary()["rejected_lines"] == len(BAD_LINES) + 1
    assert svc.summary()["jobs"] == {"done": 2, "failed": 0}
    with pytest.raises(IsADirectoryError):  # I/O errors are not bad lines
        svc.serve_loop(tmp_path, once=True)


def test_tailing_waits_for_the_end_of_a_line_being_written(tmp_path, monkeypatch):
    queue = tmp_path / "queue.jsonl"
    line = json.dumps(SPECS[0].to_dict())
    queue.write_text(line + "\n" + line[:20])
    events = []
    svc = JobService(ResultStore(tmp_path / "store"), jobs=1, retries=0,
                     events=events.append)

    def finish_the_line(seconds):
        with open(queue, "a") as fh:
            fh.write(line[20:] + "\n")

    import repro.serve.service as service
    monkeypatch.setattr(service, "time", types.SimpleNamespace(
        sleep=finish_the_line, time=service.time.time))
    assert svc.serve_loop(queue, max_batches=2) == 2
    assert not [e for e in events if e["event"] == "rejected"]
    assert svc.summary()["cache"]["hits"] == 1  # the second copy of the line


def test_parse_queue_line_shapes():
    (one,) = parse_queue_line(json.dumps({"app": "jacobi", "size": 32}))
    assert one.size == 32
    many = parse_queue_line(json.dumps(
        {"sweep": {"size": [16, 32]}, "defaults": {"app": "cg"}}))
    assert [s.size for s in many] == [16, 32]
    with pytest.raises(ValueError):
        parse_queue_line("[1, 2]")


# --------------------------------------------------------------------- #
# CLI verbs


def run_cli(argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_submit_sweep_twice_then_jobs_table(tmp_path):
    store = str(tmp_path / "store")
    sweep = ["submit", "--store", store, "--jobs", "2", "--quiet",
             "--size", "16", "--iters", "2", "--gpus", "2",
             "--sweep", "app=jacobi", "backend=mpi,gpuccl"]
    code, text = run_cli(sweep)
    assert code == 0
    assert "2 job(s): 2 executed, 0 cache hit(s)" in text
    assert text.count("ok ") == 2

    code, text = run_cli(sweep)
    assert code == 0
    assert "2 job(s): 0 executed, 2 cache hit(s)" in text

    code, text = run_cli(["jobs", "--store", store])
    assert code == 0
    assert "2 job(s)" in text and text.count(" done ") >= 2

    code, text = run_cli(["jobs", "--store", store, "--failed"])
    assert code == 0 and "no jobs" in text


@pytest.mark.parametrize("argv,needle", [
    (["--sweep", "ranks=abc"], "ranks must be an integer"),
    (["--sweep", "size=32.9"], "size must be an integer"),
    (["--sweep", "workers=4"], "unknown JobSpec field"),
    (["--coll", "ring/0"], "channel count"),
    (["--sweep", "seed=" + ",".join(map(str, range(200))),
      "iters=" + ",".join(map(str, range(1, 201)))], "40000 points; the limit is 10000"),
])
def test_cli_submit_bad_spec_is_one_line_and_exit_2(tmp_path, capsys, argv, needle):
    code, text = run_cli(["submit", "--store", str(tmp_path / "store"), *argv])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert needle in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "store").exists()  # nothing ran


def test_cli_serve_once_reports_rejected_lines_even_when_quiet(tmp_path):
    queue = tmp_path / "q.jsonl"
    queue.write_text(json.dumps(SPECS[0].to_dict()) + "\nnot json\n"
                     + json.dumps(SPECS[1].to_dict()) + "\n")
    code, text = run_cli(["serve", "--store", str(tmp_path / "store"), "--quiet",
                          "--jobs", "1", "--queue", str(queue), "--once"])
    assert code == 1
    assert "[rejected] queue line 2: JSONDecodeError" in text
    assert "2 job(s): 2 executed" in text and "1 queue line(s) rejected" in text
    assert "[   done]" not in text  # --quiet still hides per-job progress


def test_cli_submit_json_and_serve_once(tmp_path):
    store = str(tmp_path / "store")
    out_json = str(tmp_path / "docs.json")
    code, text = run_cli(["submit", "--store", store, "--quiet",
                          "--app", "jacobi", "--gpus", "2",
                          "--size", "16", "--iters", "2",
                          "--json", out_json])
    assert code == 0
    docs = json.loads(open(out_json).read())
    assert len(docs) == 1 and docs[0]["status"] == "done"

    queue = tmp_path / "q.jsonl"
    queue.write_text(json.dumps({"app": "jacobi", "ranks": 2,
                                 "size": 16, "iters": 2}) + "\n")
    code, text = run_cli(["serve", "--store", store, "--quiet",
                          "--queue", str(queue), "--once"])
    assert code == 0
    assert "1 job(s): 0 executed, 1 cache hit(s)" in text
