"""What a request pays for: the import boundary, the ``--json`` bytes and
the public surface behind which both moved (docs/SERVE.md, "What a submit
costs")."""

import importlib.util
import io
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.serve
from repro.serve import JobSpec
from repro.serve.runner import execute_job

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")
STAMPS = ("wall_s", "attempts", "stored_at_unix")

_spec = importlib.util.spec_from_file_location(
    "serve_smoke", ROOT / "tools" / "serve_smoke.py")
serve_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_smoke)

SWEEP = ["--gpus", "2", "--size", "16", "--iters", "2", "--jobs", "1", "--quiet",
         "--sweep", "backend=mpi,gpuccl"]


def _canonical(path) -> bool:
    raw = Path(path).read_text()
    return raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------- #
# (a) the boundary


def test_a_hit_loads_no_simulator_no_pool_no_numpy(tmp_path):
    store, out = str(tmp_path / "store"), str(tmp_path / "docs.json")
    submit = ["submit", "--store", store, "--json", out, *SWEEP]
    code, text, _, _ = serve_smoke.run_fresh(submit)
    assert code == 0 and "2 job(s): 2 executed, 0 cache hit(s)" in text

    code, text, _, loaded = serve_smoke.run_fresh(submit)
    assert code == 0 and "2 job(s): 0 executed, 2 cache hit(s)" in text
    assert loaded == []
    assert _canonical(out)

    code, text, _, loaded = serve_smoke.run_fresh(["jobs", "--store", store])
    assert code == 0 and "2 job(s) in" in text
    assert loaded == []

    code, text, _, loaded = serve_smoke.run_fresh(["--help"])
    assert code == 0 and "usage: repro" in text
    assert loaded == []

    # One miss beside the hits: it pays for the simulator, and is right.
    code, text, _, loaded = serve_smoke.run_fresh(
        ["submit", "--store", store, "--json", out, *SWEEP, "size=16,24"])
    assert code == 0 and "4 job(s): 2 executed, 2 cache hit(s)" in text
    assert "repro.sim" in loaded and "multiprocessing" in loaded
    assert _canonical(out)
    for doc in json.loads(Path(out).read_text()):
        body = {k: v for k, v in doc.items() if k not in STAMPS}
        assert body == execute_job(doc["job"])


# --------------------------------------------------------------------- #
# (b) the bytes


def test_json_output_is_the_encoder_s_bytes_for_a_mixed_batch(tmp_path):
    """Hits, fresh jobs, an in-batch duplicate and a failed job in one
    ``--json`` file: byte-for-byte ``json.dumps(docs, indent=2,
    sort_keys=True)``, whichever of them were passed through as text."""
    from repro.cli import main

    store, out = str(tmp_path / "store"), str(tmp_path / "docs.json")
    base = ["submit", "--store", store, "--json", out, "--retries", "0",
            "--gpus", "2", "--size", "16", "--iters", "2", "--jobs", "2", "--quiet"]
    assert main(base + ["--sweep", "backend=mpi"], out=io.StringIO()) == 0
    text = io.StringIO()
    code = main(base + ["--sweep", "backend=mpi,gpuccl,gpuccl",
                        "machine=perlmutter,no-such-machine"], out=text)
    assert code == 1
    assert "6 job(s): 1 executed, 2 cache hit(s), 2 failed" in text.getvalue()
    docs = json.loads(Path(out).read_text())
    assert [d["status"] for d in docs] == ["done", "failed"] * 3
    assert docs[2] == docs[4] and docs[3] == docs[5]  # the duplicates
    assert _canonical(out)


def test_write_documents_empty_batch_and_plain_dicts():
    from repro.serve.store import StoredDoc, write_documents

    plain = {"b": [1, {"z": None, "a": "line\nbreak é"}], "a": {}, "c": []}
    for docs in ([], [plain], [StoredDoc(plain), plain, {}, StoredDoc({})]):
        fh = io.StringIO()
        write_documents(docs, fh)
        assert fh.getvalue() == json.dumps(docs, indent=2, sort_keys=True) + "\n"


def test_get_returns_the_stored_text_and_a_plain_dict(tmp_path):
    from repro.serve import ResultStore

    store = ResultStore(tmp_path)
    spec = JobSpec(app="jacobi", size=32)
    doc = {"status": "done", "config_hash": spec.config_hash(), "summary": {"n": 1}}
    path = store.put(doc)
    got = store.get(spec.config_hash())
    assert got == doc and isinstance(got, dict) and dict(got) == doc
    assert got.text == path.read_text()
    assert json.loads(json.dumps(got)) == doc


# --------------------------------------------------------------------- #
# (c) the surface


def test_public_names_are_unchanged():
    assert sorted(repro.__all__) == [
        "Communicator", "Coordinator", "Environment", "GpucclBackend",
        "GpushmemBackend", "IN_PLACE", "Job", "LaunchMode", "MPIBackend",
        "Memory", "RankContext", "ReductionOperator", "RunReport",
        "ThreadGroup", "__version__", "launch"]
    assert sorted(repro.serve.__all__) == [
        "DEFAULT_STORE_ENV", "JobOutcome", "JobService", "JobSpec",
        "ResultStore", "WorkerPool", "canonical_coll", "canonical_fault_spec",
        "default_store_path", "execute_job", "expand_matrix", "parse_sweep"]
    for module in (repro, repro.serve):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        repro.no_such_name
    with pytest.raises(AttributeError):
        repro.serve.no_such_name


def test_bare_import_reaches_subpackages_and_names():
    code = ("import repro\n"
            "assert repro.core.Coordinator is repro.Coordinator\n"
            "assert repro.launcher.launch is repro.launch\n"
            "assert repro.sim.Engine and repro.obs.MetricsRegistry\n"
            "from repro import launch, Coordinator, LaunchMode\n"
            "print(repro.__version__)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repro.__version__


def test_execute_job_pickles_by_reference():
    """A non-fork start method sends the worker function by import path."""
    blob = pickle.dumps(repro.serve.execute_job)
    assert b"repro.serve.runner" in blob and b"execute_job" in blob
    assert pickle.loads(blob) is execute_job is repro.serve.execute_job
