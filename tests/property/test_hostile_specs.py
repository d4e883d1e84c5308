"""Hostile job requests: a spec dict or queue line either becomes JobSpecs
that round-trip with an equal hash, or raises ``ValueError`` — never
anything else, so ``repro serve`` can reject it and keep draining; and a
hostile store (a document filed under another job's hash) answers a miss.
No simulation runs here."""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import JobSpec, ResultStore
from repro.serve.service import parse_queue_line

_junk = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(1 << 70), max_value=1 << 70) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

#: Per field, values that are legal or nearly legal.
_NEAR = {
    "app": ["jacobi", "cg", "latency", "bandwidth", "Jacobi", ""],
    "backend": ["mpi", "mpi-rma", "gpuccl", "gpushmem", "elastic:mpi", "mpi-native",
                "uniconn:gpushmem:PureDevice", "bogus", "٣"],
    "mode": ["PureHost", "PartialDevice", "PureDevice", "purehost"],
    "machine": ["perlmutter", "lumi", "no-such-machine"],
    "ranks": [1, 2, 64, 2.0, 0, -1, 2.5, "2", True, 1 << 70],
    "size": [1, 32, 32.0, 32.9, 0, "32", 1e308, 1 << 70],
    "iters": [1, 8, 8.0, 0, None, [8]],
    "seed": [0, 7, -3, 0.0, "0"],
    "fault_spec": [None, "", ";;", "crash,rank=1,at=1e-4", "crash, rank=1, at=0.0001",
                   "watchdog,timeout=5e-3;crash,rank=0,at=0", "drop,p=nan",
                   "drop,tag=٣", "crash,rank=1", "degrade,link=x,factor=inf", 7],
    "fault_seed": [0, 11, 1.0, False],
    "coll": [None, False, "off", "auto", "ring", "ring/1", "ring+LL/2",
             "ring/0", "tree/x", "ring+XX", "ring/٣", True, 0],
    "capture": ["off", "regions", "auto", None],
    "sanitize": [True, False, 0, 1, "false", None, 2],
    "obs": ["off", "metrics", "spans", "all"],
    "collect": [True, False, 1, "yes"],
}
assert sorted(_NEAR) == sorted(JobSpec().to_dict())


def _legal(name, value) -> bool:
    try:
        JobSpec(**{name: value})
    except ValueError:
        return False
    return True


def _mostly_legal(wrap):
    """A dict over the spec fields whose values are legal one by one (the
    combination may still not be), then up to two of them replaced by
    near-misses or junk and, sometimes, one unknown key: most examples get
    past the first check and reach canonicalisation and the OSU exclusions."""
    return st.builds(
        lambda legal, hostile, extra: {**legal, **hostile, **extra},
        st.fixed_dictionaries({}, optional={
            name: wrap(st.sampled_from([v for v in values if _legal(name, v)]))
            for name, values in _NEAR.items()}),
        st.lists(st.sampled_from(sorted(_NEAR)), max_size=2, unique=True).flatmap(
            lambda names: st.fixed_dictionaries({
                name: wrap(st.sampled_from(_NEAR[name]) | _junk) for name in names})),
        st.just({}) | st.dictionaries(st.text(max_size=8), _junk, max_size=1))


_spec_dict = _mostly_legal(lambda values: values)


def _check(specs) -> None:
    assert specs and all(isinstance(s, JobSpec) for s in specs)
    for spec in specs:
        # Through JSON, as the store and the worker pipe carry it.
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec and again.config_hash() == spec.config_hash()
        assert spec.describe()


#: Requests earlier versions accepted (an alias, a field the app then
#: ignored, a CG matrix too small to build that then failed in the worker):
#: each is a ValueError naming what it refuses, never a run.
_RETIRED = [
    ({"coll": "tuned"}, "tuned"),
    ({"app": "latency", "mode": "PureDevice"}, "'mode'"),
    ({"app": "bandwidth", "mode": "PartialDevice"}, "'mode'"),
    ({"app": "cg", "capture": "regions"}, "'capture'"),
    ({"app": "cg", "size": 4}, "size"),
    ({"app": "cg", "size": 7}, "size"),
    ({"app": "latency", "obs": "spans"}, "'obs'"),
    ({"app": "bandwidth", "ranks": 64}, "ranks"),
    # A backend no app runs, or a mode the variant cannot take: each used
    # to hash and queue, then fail in the worker or run without the mode.
    ({"backend": "bogus"}, "backend"),
    ({"backend": "mpi", "mode": "PureDevice"}, "mode"),
    ({"backend": "mpi-native", "mode": "PureDevice"}, "mode"),
    ({"backend": "uniconn:gpushmem:PureDevice", "mode": "PartialDevice"}, "mode"),
    ({"backend": "elastic:mpi-rma"}, "backend"),
    ({"app": "latency", "backend": "elastic:mpi"}, "backend"),
]


@pytest.mark.parametrize("fields, named", _RETIRED, ids=lambda v: str(v))
def test_retired_spellings_are_rejected(fields, named):
    with pytest.raises(ValueError, match=named):
        JobSpec.from_dict(fields)
    with pytest.raises(ValueError, match=named):
        parse_queue_line(json.dumps(fields))


@settings(max_examples=200, deadline=None)
@given(_spec_dict)
def test_spec_dict_round_trips_or_is_a_value_error(d):
    try:
        spec = JobSpec.from_dict(d)
    except ValueError:
        return
    _check([spec])


_axes = _mostly_legal(lambda values: st.lists(values, max_size=3) | values)
_payload = (_spec_dict | _junk
            | st.fixed_dictionaries({"sweep": _axes | _junk},
                                    optional={"defaults": _spec_dict | _junk}))
_line = (_payload.map(json.dumps)
         | _payload.map(lambda p: json.dumps(p)[:-1])  # truncated mid-write
         | st.text(max_size=40) | st.binary(max_size=40))


@settings(max_examples=200, deadline=None)
@given(_line)
def test_queue_line_yields_specs_or_is_a_value_error(line):
    try:
        specs = parse_queue_line(line)
    except ValueError:
        return
    _check(specs)


@settings(max_examples=50, deadline=None)
@given(_spec_dict, _spec_dict)
def test_a_stored_document_answers_only_its_own_hash(a, b):
    """A wrong-hash document (one job's result filed under another job's
    hash) is a miss for that hash, and a hit only for its own."""
    try:
        mine, theirs = JobSpec.from_dict(a), JobSpec.from_dict(b)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        doc = {"status": "done", "config_hash": theirs.config_hash(), "job": theirs.to_dict()}
        h = mine.config_hash()
        target = Path(root) / h[:2] / f"{h}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store.put(doc).read_bytes())
        assert (store.get(h) is None) == (h != theirs.config_hash())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=101, max_value=3000), min_size=2, max_size=3))
def test_an_oversized_sweep_is_rejected_before_it_allocates(lengths):
    """Every axis alone is fine, their product is over 10 000 (up to
    2.7e10 points): one ValueError, in the time it takes to multiply."""
    axes = dict(zip(("seed", "iters", "size"), (list(range(1, n + 1)) for n in lengths)))
    line = json.dumps({"sweep": axes, "defaults": {"app": "jacobi", "ranks": 2}})
    t0 = time.perf_counter()
    try:
        parse_queue_line(line)
    except ValueError as exc:
        assert "points" in str(exc)
    else:
        raise AssertionError("oversized sweep accepted")
    assert time.perf_counter() - t0 < 0.05
