"""The model fingerprint in every config hash: a cached result must not
outlive the simulator sources that produced it (ROADMAP item 5)."""

import compileall
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.serve import JobSpec
from repro.serve.jobspec import SPEC_SCHEMA, model_fingerprint

PACKAGE = Path(repro.__file__).resolve().parent
FORBIDDEN = ("numpy", "repro.sim", "repro.hardware", "repro.coll", "repro.core")

_PROBE = (
    "import sys\n"
    "from repro.serve.jobspec import JobSpec, model_fingerprint\n"
    "print(model_fingerprint(), JobSpec().config_hash(),\n"
    f"      [m for m in {FORBIDDEN!r} if m in sys.modules])\n")


def _probe(tree: Path):
    """(fingerprint, default-spec hash) computed by a fresh interpreter
    over the ``repro`` package copied (or living) under ``tree``."""
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(tree), "PATH": "/usr/bin:/bin"})
    fingerprint, config_hash, loaded = out.stdout.strip().split(" ", 2)
    assert loaded == "[]"  # the sources are read, never imported
    return fingerprint, config_hash


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(PACKAGE, tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "repro"


def test_schema_two_and_stable_across_processes():
    assert SPEC_SCHEMA.endswith("/2")
    here = (model_fingerprint(), JobSpec().config_hash())
    assert _probe(PACKAGE.parent) == _probe(PACKAGE.parent) == here
    assert len(here[0]) == 64 and int(here[0], 16) >= 0


def test_contents_count_mtimes_and_bytecode_do_not(tmp_path):
    copy = _copy(tmp_path)
    base = _probe(tmp_path)
    assert base == (model_fingerprint(), JobSpec().config_hash())

    for path in copy.rglob("*.py"):
        os.utime(path, (1, 1))
    cache = copy / "hardware" / "__pycache__"
    cache.mkdir()
    (cache / "profiles.cpython-311.pyc").write_bytes(b"\x00stale")
    assert _probe(tmp_path) == base


def test_one_model_byte_changes_every_hash_but_the_envelope_does_not(tmp_path):
    copy = _copy(tmp_path)
    base = _probe(tmp_path)

    # The envelope: how results are served is not what they are.
    for name in ("serve/store.py", "bench/report.py", "cli.py", "__main__.py"):
        with open(copy / name, "a") as fh:
            fh.write("# touched\n")
    assert _probe(tmp_path) == base

    profiles = copy / "hardware" / "profiles.py"
    profiles.write_bytes(profiles.read_bytes() + b"#")
    fingerprint, config_hash = _probe(tmp_path)
    assert fingerprint != base[0] and config_hash != base[1]

    # A new model file counts too, and so does where it is.
    (copy / "coll" / "extra.py").write_text("")
    moved = _probe(tmp_path)
    assert moved[0] != fingerprint
    (copy / "coll" / "extra.py").rename(copy / "sim" / "extra.py")
    assert _probe(tmp_path)[0] not in (fingerprint, moved[0])


def test_no_model_module_imports_the_harness():
    """``bench/`` is outside the fingerprint, so nothing a run executes may
    live there: no module of the model imports it."""
    harness = re.compile(r"^\s*(from\s+(\.+|repro\.)bench\b|import\s+repro\.bench\b)", re.M)
    importers = [str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
                 if path.relative_to(PACKAGE).parts[0] not in ("bench", "serve", "cli.py")
                 and harness.search(path.read_text())]
    assert importers == []


def test_falls_back_to_the_version_without_sources(tmp_path):
    """A bytecode-only install has nothing to read."""
    copy = _copy(tmp_path)
    assert compileall.compile_dir(copy, legacy=True, quiet=2)
    for path in copy.rglob("*.py"):
        path.unlink()
    fingerprint, config_hash = _probe(tmp_path)
    assert fingerprint == f"version:{repro.__version__}"
    assert config_hash != JobSpec().config_hash()
