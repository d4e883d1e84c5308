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
    code, text = run_cli(["latency", "--variant", "uniconn:mpi",
                          "--sizes", "8", "1024"])
    assert code == 0
    assert "us" in text and "intra-node" in text


def test_bandwidth_command_inter_node():
    code, text = run_cli(["bandwidth", "--variant", "gpuccl-native",
                          "--inter", "--sizes", "65536"])
    assert code == 0
    assert "GB/s" in text and "inter-node" in text


def test_tune_writes_table(tmp_path):
    path = tmp_path / "table.json"
    code, text = run_cli(["tune", "--machine", "lumi", "--dump", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["machine"] == "lumi"
    assert "intra" in doc["measurements"]


def test_trace_writes_chrome_json(tmp_path):
    path = tmp_path / "t.json"
    code, text = run_cli(["trace", "--gpus", "2", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) > 10


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


def test_trace_backend_takes_full_variants(tmp_path):
    out = tmp_path / "trace.json"
    code, text = run_cli(["trace", "--backend", "mpi-native", "--gpus", "2",
                          "--out", str(out)])
    assert code == 0 and "events ->" in text
    assert json.loads(out.read_text())["traceEvents"]


def test_variant_name_passes_full_variants_through():
    from repro.apps import variant_name

    assert variant_name("gpushmem") == "uniconn:gpushmem"
    assert variant_name("gpushmem", "PureDevice") == "uniconn:gpushmem:PureDevice"
    for full in ("elastic:mpi", "mpi-native", "uniconn:gpushmem:PureDevice"):
        assert variant_name(full, "PureDevice") == full


@pytest.mark.parametrize("argv", [
    ["jacobi", "--capture", "auto"],
    ["jacobi", "--resilient"],
    ["jacobi", "--checkpoint-every", "4"],
    ["tune", "-o", "table.json"],  # one output flag: --dump
    ["cg", "--capture", "regions"],  # CG annotates no loop region
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
        "clock_peak", "compactions", "alive_peak"}
    assert all(isinstance(v, int) for v in doc["stats"]["sanitizer"].values())
    assert doc["stats"]["sanitizer"]["accesses"] > 0
    code, _ = run_cli(argv)
    assert code == 0
    assert "sanitizer" not in json.loads(out.read_text())["stats"]
