"""Content-addressed result store: layout, atomicity contract, counters."""

import json

from repro.serve import JobSpec, ResultStore
from repro.serve.store import RESULT_SCHEMA


def _doc(spec: JobSpec, status: str = "done") -> dict:
    return {"schema": RESULT_SCHEMA, "status": status,
            "job": spec.to_dict(), "config_hash": spec.config_hash(),
            "summary": {"n": 1}}


def test_put_get_layout_and_counters(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec(app="jacobi", size=32, iters=4)
    h = spec.config_hash()

    assert store.get(h) is None  # miss on empty store
    path = store.put(_doc(spec))
    assert path == tmp_path / h[:2] / f"{h}.json"
    assert path.exists() and not list(tmp_path.glob("**/*.tmp.*"))

    doc = store.get(h)
    assert doc["config_hash"] == h and doc["status"] == "done"
    assert store.counters() == {"hits": 1, "misses": 1, "invalidations": 0}
    assert len(store) == 1


def test_failed_documents_are_not_hits(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec(app="cg", size=64)
    store.put({**_doc(spec, status="failed"), "error": "boom"})
    assert store.get(spec.config_hash()) is None  # failure -> rerun next time
    assert store.peek(spec.config_hash())["status"] == "failed"
    assert store.counters()["misses"] == 1


def test_bytes_on_disk_are_deterministic(tmp_path):
    """Same document -> byte-identical file, independent of key order."""
    spec = JobSpec(app="jacobi")
    a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
    doc = _doc(spec)
    shuffled = dict(reversed(list(doc.items())))
    pa, pb = a.put(doc), b.put(shuffled)
    assert pa.read_bytes() == pb.read_bytes()


def test_invalidate_one_and_all(tmp_path):
    store = ResultStore(tmp_path)
    specs = [JobSpec(app="jacobi", size=s) for s in (16, 32, 64)]
    for spec in specs:
        store.put(_doc(spec))
    assert store.invalidate(specs[0].config_hash()) == 1
    assert store.get(specs[0].config_hash()) is None
    assert store.invalidate() == 2
    assert len(store) == 0
    assert store.counters()["invalidations"] == 3


def test_corrupt_entry_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    spec = JobSpec(app="jacobi", size=48)
    path = store.put(_doc(spec))
    path.write_text("{not json")
    assert store.get(spec.config_hash()) is None


def test_a_document_under_another_hash_is_a_miss(tmp_path):
    """A file at ``<h[:2]>/<h>.json`` whose ``config_hash`` is another
    job's is not h's result: a miss, so the job reruns and its write
    replaces the file."""
    store = ResultStore(tmp_path)
    mine, theirs = JobSpec(app="jacobi", size=32), JobSpec(app="jacobi", size=64)
    h = mine.config_hash()
    target = tmp_path / h[:2] / f"{h}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(store.put(_doc(theirs)).read_bytes())
    assert store.get(h) is None
    assert store.counters()["misses"] == 1
    assert store.put(_doc(mine)) == target
    assert store.get(h)["config_hash"] == h


def test_jobs_iterates_everything(tmp_path):
    store = ResultStore(tmp_path)
    for s in (16, 32):
        store.put(_doc(JobSpec(app="jacobi", size=s)))
    docs = list(store.jobs())
    assert len(docs) == 2
    assert all(json.dumps(d) for d in docs)
