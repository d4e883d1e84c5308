"""``make test`` — the tier-1 CI step — ends with pytest's summary line.

pytest adds ``addopts`` from pyproject.toml to the Makefile's own flags, so a
``-q`` in both makes ``-qq``, which prints no passed/skipped/xfailed line and
leaves the CI log without the counts ROADMAP quotes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _make_test_flags():
    recipe = ROOT.joinpath("Makefile").read_text().split("\ntest:\n", 1)[1]
    command = recipe.splitlines()[0].strip()
    return command.split("-m pytest", 1)[1].split()


def test_make_test_prints_one_summary_line():
    one = "tests/test_options.py::test_cg_min_rows_is_what_synthetic_spd_builds"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *_make_test_flags(), "-p", "no:cacheprovider", one],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert len(re.findall(r"^1 passed in [\d.]+s$", out, re.M)) == 1, out
