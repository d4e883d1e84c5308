"""The EXPERIMENTS.md generator rewrites its file whole, so nothing written
by hand may live there: the host-cost write-ups are in docs/LOGBOOK.md,
which generating must leave alone."""

from pathlib import Path

from benchmarks import generate_experiments_md

ROOT = Path(__file__).resolve().parents[2]
LOGBOOK = ROOT / "docs" / "LOGBOOK.md"

#: The sections moved out of EXPERIMENTS.md (they were lines 194-825 of it).
MOVED = [
    "## Host cost of the uniform layer: deferred charges (beyond the paper)",
    "## Host cost of the uniform layer: decide once, reuse always (beyond the paper)",
    "## Host cost of the race sanitizer: bounded clocks (beyond the paper)",
    "## Host cost of a request: a submit pays only for what it uses (beyond the paper)",
    "## The collector's share: a launch that frees by refcount (beyond the paper)",
    "## Last reading of the two-scheduler ledger (beyond the paper)",
]


def test_generating_leaves_the_logbook_alone(tmp_path):
    before = LOGBOOK.read_bytes()
    committed = (ROOT / "EXPERIMENTS.md").read_bytes()
    out = tmp_path / "EXPERIMENTS.md"
    generate_experiments_md.main(out=str(out))
    assert LOGBOOK.read_bytes() == before
    assert (ROOT / "EXPERIMENTS.md").read_bytes() == committed
    headings = before.decode().splitlines()
    generated = out.read_text()
    for heading in MOVED:
        assert heading in headings
        assert heading not in generated
    assert "(docs/LOGBOOK.md)" in generated  # the generated file links it
    # ... and so does the committed one, which holds no hand-written section.
    assert "(docs/LOGBOOK.md)" in committed.decode()
    assert not set(MOVED) & set(committed.decode().splitlines())
