"""Deterministic sweep-matrix expansion shared by benchmarks and the CLI."""

import pytest

from repro.serve import expand_matrix, parse_sweep
from repro.serve.matrix import MAX_SWEEP_POINTS


def test_cross_product_order_first_axis_outermost():
    points = expand_matrix({"a": [1, 2], "b": ["x", "y", "z"]})
    assert points == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 1, "b": "z"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "z"},
    ]


def test_scalars_wrap_and_empty_axis_rejected():
    assert expand_matrix({"a": 1, "b": [2, 3]}) == \
        [{"a": 1, "b": 2}, {"a": 1, "b": 3}]
    assert expand_matrix({}) == [{}]
    with pytest.raises(ValueError):
        expand_matrix({"a": []})


def test_cross_product_is_bounded_before_it_is_built():
    """10^9 points are refused from the axis lengths alone (ranges are not
    even walked); the limit itself, and the repo's own grids, are fine."""
    huge = {"seed": range(1000), "iters": range(1, 1001), "size": range(8, 1008)}
    with pytest.raises(ValueError, match=rf"1000000000 points.*limit is {MAX_SWEEP_POINTS}"):
        expand_matrix(huge)
    with pytest.raises(ValueError, match="points"):
        expand_matrix({"a": range(MAX_SWEEP_POINTS), "b": [0, 1]})
    assert len(expand_matrix({"a": range(MAX_SWEEP_POINTS), "b": "x"})) == MAX_SWEEP_POINTS


def test_parse_sweep_coercion():
    axes = parse_sweep(["app=jacobi,cg", "size=32,64", "p=0.5",
                       "sanitize=true,false", "fault_spec=none"])
    assert axes["app"] == ["jacobi", "cg"]
    assert axes["size"] == [32, 64]
    assert axes["p"] == [0.5]
    assert axes["sanitize"] == [True, False]
    assert axes["fault_spec"] == [None]


def test_parse_sweep_rejects_duplicates_and_bad_tokens():
    with pytest.raises(ValueError):
        parse_sweep(["a=1", "a=2"])
    with pytest.raises(ValueError):
        parse_sweep(["no-equals-sign"])


def test_benchmarks_reexport_matches():
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    try:
        from benchmarks._common import expand_matrix as bench_expand
    finally:
        sys.path.pop(0)
    assert bench_expand is expand_matrix
