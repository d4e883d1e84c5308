"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_machines_lists_all_presets():
    code, text = run_cli(["machines"])
    assert code == 0
    for name in ("perlmutter", "lumi", "marenostrum5"):
        assert name in text
    assert "N/A" in text  # LUMI's GPUSHMEM column


def test_jacobi_with_verification():
    code, text = run_cli(["jacobi", "--backend", "gpuccl", "--gpus", "4",
                          "--size", "32", "--iters", "4", "--verify"])
    assert code == 0
    assert "PASS (bitwise)" in text
    assert "us/iter" in text


def test_jacobi_device_mode():
    code, text = run_cli(["jacobi", "--backend", "gpushmem", "--mode", "PureDevice",
                          "--gpus", "4", "--size", "32", "--iters", "4", "--verify"])
    assert code == 0
    assert "PASS" in text


def test_cg_reports_residual():
    code, text = run_cli(["cg", "--backend", "mpi", "--rows", "512",
                          "--gpus", "4", "--iters", "10"])
    assert code == 0
    assert "|b-Ax|/|b|" in text


def test_latency_command():
    code, text = run_cli(["latency", "--variant", "uniconn:mpi", "--size", "1024"])
    assert code == 0
    assert "us" in text and "intra-node" in text


def test_bandwidth_command_inter_node():
    code, text = run_cli(["bandwidth", "--variant", "gpuccl-native",
                          "--inter", "--size", "65536"])
    assert code == 0
    assert "GB/s" in text and "inter-node" in text


def test_tune_writes_table(tmp_path):
    path = tmp_path / "table.json"
    code, text = run_cli(["tune", "--machine", "lumi", "--gpus", "8", "--dump", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.coll.table" and doc["machine"] == "lumi"
    assert "lumi/p8/8" in text


@pytest.mark.parametrize("gpus", ["0", "-4"])
def test_tune_rejects_fewer_than_one_gpu(gpus, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["tune", "--gpus", gpus])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1] == f"repro tune: error: argument --gpus: must be >= 1, got {gpus}"


@pytest.mark.parametrize("verb, flag", [
    ("tune", "--dump"), ("report", "--metrics-out"), ("report", "--trace-out"),
    ("submit", "--json")])
def test_an_output_path_that_cannot_be_written_is_refused_before_the_run(
        tmp_path, capsys, verb, flag):
    """A missing directory or a directory as the file is a parse error:
    no table is tuned, no job simulated or stored, for output that
    cannot land."""
    store = tmp_path / "store"
    extra = ["--gpus", "8"] if verb == "tune" else ["--gpus", "2", "--size", "32"]
    if verb == "submit":
        extra += ["--store", str(store)]
    for bad in (tmp_path / "no_such_dir" / "out.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli([verb, *extra, flag, str(bad)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        why = (f"{str(bad)!r} is a directory" if bad.is_dir()
               else f"directory {str(bad.parent)!r} does not exist")
        assert err.splitlines()[-1] == f"repro {verb}: error: argument {flag}: {why}"
    assert not store.exists()


def test_report_trace_out_writes_chrome_json(tmp_path):
    """`repro report --trace-out` writes the run's Chrome trace, spans included."""
    path = tmp_path / "t.json"
    code, text = run_cli(["report", "--gpus", "2", "--size", "64", "--iters", "5",
                          "--trace-out", str(path)])
    assert code == 0 and f"chrome trace -> {path}" in text
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) > 10 and {"B", "E"} <= {e["ph"] for e in events}


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_machine_choice_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["jacobi", "--machine", "frontier"])


def test_jacobi_backend_takes_full_variants():
    """--backend composes like JobSpec.backend: a full variant passes
    through, so the elastic and native solvers run from the CLI."""
    code, text = run_cli(["jacobi", "--backend", "elastic:mpi", "--gpus", "4",
                          "--size", "32", "--iters", "4", "--verify"])
    assert code == 0
    assert "[elastic:mpi]" in text and "PASS (bitwise)" in text
    code, text = run_cli(["report", "--backend", "mpi-native", "--gpus", "2",
                          "--size", "32", "--iters", "2"])
    assert code == 0 and "[mpi-native]" in text


@pytest.mark.parametrize("backend", ["mpi-native", "elastic:mpi", "gpuccl"])
def test_cg_backend_takes_full_variants(backend):
    """`repro cg` composes its variant like `repro jacobi` does."""
    from repro.apps import variant_name

    code, text = run_cli(["cg", "--backend", backend, "--gpus", "4",
                          "--rows", "192", "--iters", "4"])
    assert code == 0
    assert f"[{variant_name(backend)}]" in text and "|b-Ax|/|b|" in text


def test_report_trace_out_takes_full_variants(tmp_path):
    out = tmp_path / "trace.json"
    code, text = run_cli(["report", "--backend", "mpi-native", "--gpus", "2",
                          "--size", "32", "--iters", "2", "--trace-out", str(out)])
    assert code == 0 and "[mpi-native]" in text
    assert json.loads(out.read_text())["traceEvents"]  # (a native run has no spans)


def test_variant_name_passes_full_variants_through():
    from repro.apps import variant_name

    assert variant_name("gpushmem") == "uniconn:gpushmem"
    assert variant_name("gpushmem", "PureDevice") == "uniconn:gpushmem:PureDevice"
    for full in ("elastic:mpi", "mpi-native", "uniconn:gpushmem:PureDevice"):
        assert variant_name(full, "PureDevice") == full


def test_parse_variant_is_the_one_grammar():
    from repro.apps import parse_variant

    assert parse_variant("gpuccl-native") == ("native", "gpuccl-native", "PureHost")
    assert parse_variant("elastic:gpushmem") == ("elastic", "gpushmem", "PureHost")
    assert parse_variant("uniconn:gpushmem:PureDevice") == ("uniconn", "gpushmem", "PureDevice")
    assert parse_variant("gpushmem", "PartialDevice") == ("uniconn", "gpushmem", "PartialDevice")
    assert parse_variant("mpi-rma") == parse_variant("uniconn:mpi-rma") == (
        "uniconn", "mpi-rma", "PureHost")
    for bad in ("uniconn:gpushmem:Turbo", "elastic:gpushmem:PureDevice", "nccl:gpuccl",
                "uniconn:", "elastic:mpi-rma", "uniconn:gpushmem-device"):
        with pytest.raises(ValueError):
            parse_variant(bad)


@pytest.mark.parametrize("argv", [
    ["jacobi", "--capture", "auto"],
    ["jacobi", "--resilient"],
    ["jacobi", "--checkpoint-every", "4"],
    ["tune", "-o", "table.json"],  # one output flag: --dump
    ["cg", "--capture", "regions"],  # CG annotates no loop region
    # A run verb is a JobSpec; these say what no spec field can.
    ["cg", "--nnz", "33"],
    ["latency", "--sizes", "8", "1024"],
    ["trace", "--out", "trace.json"],  # now `report --trace-out`
    ["tune", "--coll"],  # tune builds only the collective table
    ["tune", "--nodes", "2"],  # the node count follows from --gpus
])
def test_retired_jacobi_flags_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_report_sanitize_document_carries_the_sanitizer_stats(tmp_path):
    """The sanitizer accounts for itself, only when it ran."""
    out = tmp_path / "report.json"
    argv = ["report", "--gpus", "2", "--size", "32", "--iters", "2",
            "--metrics-out", str(out)]
    code, text = run_cli(argv + ["--sanitize"])
    assert code == 0 and "no races detected" in text
    doc = json.loads(out.read_text())
    assert doc["races"] == []
    assert set(doc["stats"]["sanitizer"]) == {
        "contexts", "ids", "accesses", "clock_ops", "clock_entries_visited",
        "clock_peak", "id_reuses", "alive_peak"}
    assert all(isinstance(v, int) for v in doc["stats"]["sanitizer"].values())
    assert doc["stats"]["sanitizer"]["accesses"] > 0
    code, _ = run_cli(argv)
    assert code == 0
    assert "sanitizer" not in json.loads(out.read_text())["stats"]


# --------------------------------------------------------------------- #
# A run verb is `repro submit --app <verb>` without a store.


def _submitted(tmp_path, flags):
    """The result document `repro submit --json` writes for these flags."""
    out = tmp_path / "docs.json"
    code, _ = run_cli(["submit", "--store", str(tmp_path / "store"), "--jobs", "1",
                       "--quiet", "--json", str(out), *flags])
    assert code == 0
    (doc,) = json.loads(out.read_text())
    return doc


def _printed_values(verb, summary):
    if verb == "latency":
        return [f"{int(n):>10d} B   {v * 1e6:10.2f} us" for n, v in summary["seconds"].items()]
    if verb == "bandwidth":
        return [f"{int(n):>10d} B   {v / 1e9:10.2f} GB/s"
                for n, v in summary["bytes_per_s"].items()]
    values = [f"{summary['time_per_iter_s'] * 1e6:.2f} us/iter"]
    if verb == "cg":
        values.append(f"|b-Ax|/|b| = {summary['relative_residual']:.2e}")
    return values


_JACOBI = ["--gpus", "4", "--size", "32", "--iters", "4"]
_CG = ["--gpus", "4", "--rows", "192", "--iters", "4"]


@pytest.mark.parametrize("argv, submit", [
    (["jacobi", "--backend", "mpi", *_JACOBI], ["--backend", "mpi", *_JACOBI]),
    (["jacobi", "--backend", "elastic:mpi", "--verify", *_JACOBI],
     ["--backend", "elastic:mpi", "--collect", *_JACOBI]),
    (["jacobi", "--backend", "gpushmem", "--mode", "PureDevice", *_JACOBI],
     ["--backend", "gpushmem", "--mode", "PureDevice", *_JACOBI]),
    (["cg", "--backend", "mpi", *_CG],
     ["--app", "cg", "--backend", "mpi", "--gpus", "4", "--size", "192", "--iters", "4"]),
    (["cg", "--backend", "gpuccl", *_CG],
     ["--app", "cg", "--backend", "gpuccl", "--gpus", "4", "--size", "192", "--iters", "4"]),
    (["latency", "--variant", "uniconn:mpi", "--size", "2048"],
     ["--app", "latency", "--backend", "uniconn:mpi", "--gpus", "2", "--size", "2048",
      "--iters", "20"]),
    (["latency", "--variant", "gpuccl", "--inter", "--size", "2048"],
     ["--app", "latency", "--backend", "gpuccl", "--gpus", "4", "--size", "2048",
      "--iters", "20"]),
    (["bandwidth", "--variant", "gpuccl-native", "--inter", "--size", "65536"],
     ["--app", "bandwidth", "--backend", "gpuccl-native", "--gpus", "4",
      "--size", "65536", "--iters", "20"]),
    (["bandwidth", "--variant", "uniconn:gpushmem", "--size", "65536"],
     ["--app", "bandwidth", "--backend", "uniconn:gpushmem", "--gpus", "2",
      "--size", "65536", "--iters", "20"]),
], ids=lambda v: " ".join(v))
def test_run_verb_prints_the_submitted_document(tmp_path, argv, submit):
    from repro.serve import JobSpec

    doc = _submitted(tmp_path, ["--app", argv[0], *submit])
    code, text = run_cli(argv)
    assert code == 0
    assert f"[{JobSpec.from_dict(doc['job']).variant()}" in text
    for value in _printed_values(argv[0], doc["summary"]):
        assert value in text, (value, text)
    if "--verify" in argv:
        assert "PASS (bitwise)" in text and doc["summary"]["solution_sha256"]


@pytest.mark.parametrize("argv", [
    ["jacobi", "--gpus", "0"],
    ["jacobi", "--iters", "0"],
    ["cg", "--rows", "4"],
    ["report", "--gpus", "0"],
    ["jacobi", "--backend", "bogus"],
    ["jacobi", "--backend", "mpi", "--mode", "PureDevice"],
])
def test_a_spec_the_flags_cannot_make_is_one_error_line(argv, capsys):
    code, text = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith(f"repro {argv[0]}: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_races_print_from_the_document_as_from_the_live_report():
    """The verbs print findings from `stats["races"]`, the dict form a
    result document carries; each renders as its RaceReport does."""
    import numpy as np

    from repro.cli import _print_races
    from repro.gpu import dim3
    from repro.gpu.kernel import kernel
    from repro.hardware.gpu import KernelCost
    from repro.launcher import launch

    @kernel(name="cli_fill", cost=lambda ctx, buf: KernelCost(bytes_moved=8.0 * buf.size))
    def k_fill(ctx, buf):
        buf.data[:] = 1.0

    def body(ctx):
        device = ctx.set_device(0)
        stream = device.create_stream()
        buf = device.malloc(32, np.float32)
        device.launch(k_fill, dim3(1), dim3(32), args=(buf,), stream=stream)
        buf.read()  # no stream.synchronize()

    report = launch(body, 1, sanitize="race")
    out = io.StringIO()
    stats = json.loads(json.dumps(report.to_dict()["stats"]))
    assert _print_races(stats, out) == len(report.races) > 0
    text = out.getvalue()
    assert text.startswith(f"sanitizer: {len(report.races)} finding(s)")
    for race in report.races:
        assert "\n".join(f"  {line}" for line in str(race).splitlines()) in text
