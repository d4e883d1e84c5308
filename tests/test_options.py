"""``repro.options`` is the one declaration of each run-option vocabulary:
the CLI offers exactly its tuples, the enum and registries that implement
them agree with it, and ``launch()`` keeps the keywords it had."""

import inspect
import re
from pathlib import Path

import pytest

from repro import options
from repro.cli import build_parser
from repro.launcher import launch

SRC = Path(__file__).resolve().parents[1] / "src"


def _choices():
    """(subcommand, flag) -> choices, for every flag that declares any."""
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return {(name, action.option_strings[-1]): tuple(action.choices)
            for name, parser in sub.choices.items()
            for action in parser._actions if action.choices and action.option_strings}


def test_cli_choices_are_the_options_tuples():
    by_flag = {"--machine": options.MACHINES, "--mode": options.LAUNCH_MODES,
               "--capture": options.CAPTURE_MODES, "--app": options.APPS,
               "--sanitize": ("race",)}
    choices = _choices()
    assert {flag for _, flag in choices} == set(by_flag)
    for (command, flag), offered in choices.items():
        assert offered == by_flag[flag], f"repro {command} {flag}"
    # CG annotates no loop region, so `repro cg` offers no --capture.
    assert ("jacobi", "--capture") in choices and ("cg", "--capture") not in choices


def test_options_agree_with_what_implements_them():
    from repro.apps import cg, jacobi, osu
    from repro.core import LaunchMode, backend
    from repro.hardware import MACHINES
    from repro.serve import runner

    assert options.LAUNCH_MODES == tuple(m.name for m in LaunchMode)
    assert options.BACKENDS == tuple(backend._BY_NAME)
    assert sorted(options.MACHINES) == sorted(MACHINES)
    assert options.APPS == tuple(runner._APPS)
    for app in (jacobi, cg):
        assert options.NATIVES == tuple(app.NATIVE_VARIANTS)
    for table in (osu.LATENCY_VARIANTS, osu.BANDWIDTH_VARIANTS):
        assert {f"uniconn:{b}" for b in options.BACKENDS} < set(table)
        assert set(options.NATIVES) < set(table)
    for level in options.OBS_LEVELS:
        launch(lambda ctx: None, 1, obs=level)
    for mode in options.CAPTURE_MODES:
        launch(lambda ctx: None, 1, capture=mode)
    with pytest.raises(ValueError, match="unknown obs level"):
        launch(lambda ctx: None, 1, obs="all")


def test_cg_min_rows_is_what_synthetic_spd_builds():
    from repro.apps.cg import synthetic_spd
    from repro.serve import JobSpec

    assert synthetic_spd(options.CG_MIN_ROWS, 3).shape == (options.CG_MIN_ROWS,) * 2
    with pytest.raises(ValueError, match="too small"):
        synthetic_spd(options.CG_MIN_ROWS - 1, 3)
    JobSpec(app="cg", size=options.CG_MIN_ROWS)
    with pytest.raises(ValueError, match="size"):
        JobSpec(app="cg", size=options.CG_MIN_ROWS - 1)
    JobSpec(app="jacobi", size=options.CG_MIN_ROWS - 1)  # a cg-only bound


def test_launch_none_options_are_the_literal_defaults():
    def fn(ctx):
        ctx.engine.sleep(1e-6 * (ctx.rank + 1))
        return ctx.rank

    implicit = launch(fn, 2, obs=None, sanitize=None, capture=None, fault_plan=None)
    explicit = launch(fn, 2, obs="metrics", sanitize=False, capture="off")
    assert implicit == explicit
    assert implicit.stats == explicit.stats
    assert implicit.metrics.as_dict() == explicit.metrics.as_dict()


def test_launch_keywords_are_unchanged():
    assert list(inspect.signature(launch).parameters) == [
        "fn", "n_ranks", "machine", "args", "n_nodes", "placement", "tracer",
        "fault_plan", "fault_seed", "obs", "trace_out", "sanitize", "coll",
        "capture"]


def test_src_reads_exactly_two_environment_variables():
    """No ambient input: where the result store lives is deployment
    configuration, and nothing else about a run comes from the environment."""
    from repro.serve.store import DEFAULT_STORE_ENV

    reads = [(path.relative_to(SRC).as_posix(), line.strip())
             for path in sorted(SRC.rglob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"\b(environ|getenv|putenv)\b", line)]
    assert reads == [
        ("repro/serve/store.py", "env = os.environ.get(DEFAULT_STORE_ENV)"),
        ("repro/serve/store.py", 'xdg = os.environ.get("XDG_CACHE_HOME")'),
    ]
    assert DEFAULT_STORE_ENV == "REPRO_SERVE_STORE"


def test_src_has_no_global_statement():
    """No ambient run state: a backend, a mode or a cost is an argument of
    the run it shapes, never a module global some call rebinds."""
    rebinds = [(path.relative_to(SRC).as_posix(), line.strip())
               for path in sorted(SRC.rglob("*.py"))
               for line in path.read_text().splitlines()
               if re.match(r"\s*global\s", line)]
    assert rebinds == []


def test_library_layers_never_sleep():
    """A library-layer charge is debt (``Engine.defer_busy``/``after_busy``):
    only the engine decides to sleep one, under the instruments that need
    it. No module under gpu/, backends/ or core/ calls ``.sleep(``."""
    sleeps = [(path.relative_to(SRC).as_posix(), line.strip())
              for layer in ("gpu", "backends", "core")
              for path in sorted((SRC / "repro" / layer).rglob("*.py"))
              for line in path.read_text().splitlines()
              if ".sleep(" in line]
    assert sleeps == []
