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
    code, text = run_cli(["tune", "--machine", "lumi", "-o", str(path)])
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


@pytest.mark.parametrize("argv", [
    ["jacobi", "--capture", "auto"],
    ["jacobi", "--resilient"],
    ["jacobi", "--checkpoint-every", "4"],
])
def test_retired_jacobi_flags_rejected(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
