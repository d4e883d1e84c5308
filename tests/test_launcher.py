"""Unit tests for the SPMD launcher and rank contexts."""

import pytest

from repro.errors import HardwareError
from repro.launcher import launch
from repro.hardware import lumi, perlmutter


def test_launch_returns_per_rank_results():
    results = launch(lambda ctx: ctx.rank * 10, n_ranks=4)
    assert results == [0, 10, 20, 30]


def test_rank_placement_perlmutter():
    def probe(ctx):
        return (ctx.node, ctx.node_rank, ctx.world_size)

    results = launch(probe, n_ranks=8, machine="perlmutter")
    assert results[0] == (0, 0, 8)
    assert results[3] == (0, 3, 8)
    assert results[4] == (1, 0, 8)
    assert results[7] == (1, 3, 8)


def test_rank_placement_lumi_8_gcds_per_node():
    results = launch(lambda ctx: ctx.node, n_ranks=16, machine="lumi")
    assert results[:8] == [0] * 8
    assert results[8:] == [1] * 8


def test_set_device_maps_local_to_global():
    def probe(ctx):
        dev = ctx.set_device(ctx.node_rank)
        return dev.gpu_id

    results = launch(probe, n_ranks=8, machine=perlmutter())
    assert results == list(range(8))


def test_devices_are_singletons_per_gpu():
    def probe(ctx):
        a = ctx.set_device(0)
        b = ctx.set_device(0)
        return a is b

    # Two ranks on different nodes each grab local device 0.
    results = launch(probe, n_ranks=2, machine="perlmutter", n_nodes=2)
    assert all(results)


def test_require_device_before_selection():
    def probe(ctx):
        with pytest.raises(HardwareError, match="no GPU selected"):
            ctx.require_device()
        return True

    assert all(launch(probe, n_ranks=1))


def test_set_device_out_of_range():
    def probe(ctx):
        with pytest.raises(HardwareError):
            ctx.set_device(99)
        return True

    assert all(launch(probe, n_ranks=1))


def test_too_few_nodes_rejected():
    with pytest.raises(HardwareError, match="need >= 2 nodes"):
        launch(lambda ctx: None, n_ranks=8, machine="perlmutter", n_nodes=1)


def test_launch_passes_args():
    results = launch(lambda ctx, a, b: a + b + ctx.rank, n_ranks=2, args=(1, 2))
    assert results == [3, 4]


def test_shared_state_created_once():
    def probe(ctx):
        box = ctx.job.shared_state("box", lambda: {"creations": 0})
        box["creations"] += 1
        return id(box)

    results = launch(probe, n_ranks=4)
    assert len(set(results)) == 1


def _app_launchers():
    from repro.apps import cg, jacobi
    from repro.apps.jacobi2d import Jacobi2DConfig, launch_2d

    return {
        "jacobi": lambda **kw: jacobi.launch_variant(
            "uniconn:gpuccl", jacobi.JacobiConfig(nx=32, ny=34, iters=2, warmup=1), 4, **kw),
        "cg": lambda **kw: cg.launch_variant(
            "uniconn:gpuccl", cg.CgConfig(n=64, nnz_per_row=5, iters=2), 4, **kw),
        "jacobi2d": lambda **kw: launch_2d(
            Jacobi2DConfig(nx=32, ny=32, iters=2, warmup=1), 4, **kw),
    }


@pytest.mark.parametrize("app", ["jacobi", "cg", "jacobi2d"])
def test_app_launchers_forward_run_options_to_launch(app, tmp_path):
    """The app launchers declare no run option themselves: each one reaches
    launch() — and so the RunReport — and a misspelt one is launch()'s
    TypeError."""
    import json

    run = _app_launchers()[app]
    report = run(obs="spans", trace_out=str(tmp_path / "trace.json"),
                 sanitize="race", capture="regions", coll="auto")
    assert report.trace_path == str(tmp_path / "trace.json")
    assert report.stats["capture"]["mode"] == "regions"
    assert report.stats["races"] == []
    assert report.metrics.counter_total("coll_selected_total") > 0
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert any(e.get("ph") == "B" for e in events)  # obs="spans" slices
    with pytest.raises(TypeError, match="unexpected keyword"):
        run(observe="spans")


def test_retired_and_malformed_run_option_values_are_rejected():
    """capture="auto" is gone with its stride detector; a selection with
    no channels used to reach schedule_cost and divide by zero."""
    with pytest.raises(ValueError, match="unknown capture mode 'auto'"):
        launch(lambda ctx: None, 2, capture="auto")
    with pytest.raises(ValueError, match="ring/0"):
        launch(lambda ctx: None, 2, coll="ring/0")


def _report_cli(*extra):
    from tests.test_cli import run_cli

    return run_cli(["report", "--gpus", "2", "--size", "32", "--iters", "2", *extra])


def test_unwritable_trace_out_fails_before_the_run(tmp_path, monkeypatch):
    """The path is checked up front, through launch() and `repro report
    --trace-out` alike (the CLI refuses it as a parse error, exit 2):
    nothing is simulated for a trace that cannot land."""
    from repro import launcher

    simulated = []
    run_spmd = launcher.run_spmd
    monkeypatch.setattr(launcher, "run_spmd",
                        lambda *a, **kw: simulated.append(1) or run_spmd(*a, **kw))
    bad = str(tmp_path / "no_such_dir" / "trace.json")
    with pytest.raises(OSError, match="no_such_dir"):
        launch(lambda ctx: None, 2, trace_out=bad)
    with pytest.raises(SystemExit) as exc:
        _report_cli("--trace-out", bad)
    assert exc.value.code == 2
    assert not simulated


def test_trace_write_failure_never_replaces_a_rank_failure(tmp_path, monkeypatch):
    """A rank's exception (and the partial report on it) survives a trace
    that cannot be written afterwards; with nothing to mask, the write
    error is the error."""
    import repro.sim
    from repro.errors import SimTimeoutError

    def disk_full(tracer, path):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(repro.sim, "write_chrome_trace", disk_full)
    out = str(tmp_path / "trace.json")

    def body(ctx):
        raise RuntimeError("rank failure")

    with pytest.raises(RuntimeError, match="rank failure") as caught:
        launch(body, 2, trace_out=out)
    assert "virtual_time" in caught.value.run_report.stats
    with pytest.raises(SimTimeoutError) as caught:
        _report_cli("--trace-out", out,
                    "--fault-spec", "crash,rank=1,at=1e-5;watchdog,timeout=1e-3")
    assert caught.value.run_report.faults
    with pytest.raises(OSError, match="No space left"):
        launch(lambda ctx: None, 2, trace_out=out)
