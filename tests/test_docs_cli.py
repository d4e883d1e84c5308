"""Every ``python -m repro ...`` command the docs show parses: a retired or
misspelt flag in a fenced code block fails here, not in a reader's shell.
Parsing only; nothing runs."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PREFIX = "python -m repro "


def _fenced_commands():
    """(``file:line``, argv) for each complete command in a fenced block.

    A ``$ `` prompt and a trailing ``# comment`` are dropped, a trailing
    ``\\`` joins the next line, and placeholder lines (``{a,b}``, ``...``)
    are skipped."""
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced, pending = False, None
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, None
                continue
            if not fenced:
                continue
            if pending is not None:
                where, text = pending
                text += " " + line.strip()
            else:
                text = line.strip().removeprefix("$ ")
                where = f"{path.relative_to(ROOT)}:{number}"
                if not text.startswith(PREFIX):
                    continue
            if text.endswith("\\"):
                pending = (where, text[:-1])
                continue
            pending = None
            text = re.sub(r"\s+#.*$", "", text)
            if "{" in text or "..." in text:
                continue
            yield where, shlex.split(text)[len(PREFIX.split()):]


COMMANDS = list(_fenced_commands())


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 8
    assert {argv[0] for _, argv in COMMANDS} >= {"jacobi", "cg", "report", "submit"}


@pytest.mark.parametrize("where, argv", COMMANDS, ids=[w for w, _ in COMMANDS])
def test_documented_command_parses(where, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{where}: `python -m repro {shlex.join(argv)}` does not parse "
                    f"(exit {exc.code})")
