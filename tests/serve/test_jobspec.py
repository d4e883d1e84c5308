"""JobSpec canonicalization and config-hash determinism."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import JobSpec, canonical_coll, canonical_fault_spec

SRC = str(Path(__file__).resolve().parents[2] / "src")

REFERENCE_KWARGS = {
    "app": "cg", "backend": "gpuccl", "ranks": 8, "size": 256, "iters": 12,
    "seed": 3, "fault_spec": "crash,rank=1,at=1e-4;watchdog,timeout=5e-3",
    "fault_seed": 11, "coll": "auto", "obs": "metrics",
}


def _subprocess_hash() -> str:
    code = (
        "import json, sys\n"
        "from repro.serve import JobSpec\n"
        f"kwargs = json.loads({json.dumps(json.dumps(REFERENCE_KWARGS))})\n"
        "print(JobSpec(**kwargs).config_hash())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": SRC,
                                                     "PATH": "/usr/bin:/bin"})
    return out.stdout.strip()


def test_hash_stable_across_processes():
    """The same spec hashes identically in two fresh interpreters and
    in-process — no per-process state (hash seeds, config) leaks in."""
    local = JobSpec(**REFERENCE_KWARGS).config_hash()
    first, second = _subprocess_hash(), _subprocess_hash()
    assert first == second == local
    assert len(local) == 64 and int(local, 16) >= 0


def test_hash_ignores_kwarg_and_dict_order():
    a = JobSpec(app="jacobi", backend="mpi", size=128, iters=4)
    b = JobSpec(iters=4, size=128, backend="mpi", app="jacobi")
    assert a == b and a.config_hash() == b.config_hash()

    d = a.to_dict()
    reordered = dict(reversed(list(d.items())))
    assert JobSpec.from_dict(reordered).config_hash() == a.config_hash()


def test_every_field_change_changes_hash():
    # (jacobi: the one app that honours every field; gpushmem: the one
    # backend that takes every mode)
    base = JobSpec(**{**REFERENCE_KWARGS, "app": "jacobi", "backend": "gpushmem"})
    changed = {
        "app": "cg", "backend": "mpi", "mode": "PureDevice",
        "machine": "lumi", "ranks": 4, "size": 64, "iters": 8, "seed": 0,
        "fault_spec": "crash,rank=2,at=1e-4;watchdog,timeout=5e-3",
        "fault_seed": 0, "coll": None, "capture": "regions", "sanitize": True,
        "obs": "spans", "collect": True,
    }
    assert set(changed) == {f.name for f in dataclasses.fields(JobSpec)}
    for name, value in changed.items():
        other = dataclasses.replace(base, **{name: value})
        assert other.config_hash() != base.config_hash(), \
            f"changing {name} did not change the hash"


def test_fault_spec_spellings_hash_identically():
    a = JobSpec(fault_spec="crash, rank=1, at=0.0001")
    b = JobSpec(fault_spec="crash,rank=1,at=1e-4")
    assert a.fault_spec == b.fault_spec
    assert a.config_hash() == b.config_hash()
    # Clause order is canonicalized too.
    c = JobSpec(fault_spec="watchdog,timeout=5e-3;crash,rank=1,at=1e-4")
    d = JobSpec(fault_spec="crash,rank=1,at=0.0001;watchdog,timeout=0.005")
    assert c.config_hash() == d.config_hash()


def test_coll_spellings_hash_identically():
    assert JobSpec(coll="ring/1").config_hash() == JobSpec(coll="ring").config_hash()
    with pytest.raises(ValueError, match="tuned"):  # retired alias of "auto"
        JobSpec(coll="tuned")
    assert JobSpec(coll=None).coll is None
    assert JobSpec(coll="off").coll is None


def test_canonical_helpers():
    assert canonical_fault_spec(None) is None
    assert canonical_fault_spec("crash,rank=1,at=0.0001") == \
        canonical_fault_spec("crash, rank=1, at=1e-4")
    assert canonical_coll("auto") == "auto"
    with pytest.raises(ValueError):
        canonical_coll({"not": "hashable"})
    with pytest.raises(ValueError):
        canonical_coll("no-such-algorithm")


def test_validation_and_round_trip():
    with pytest.raises(ValueError):
        JobSpec(app="nope")
    with pytest.raises(ValueError):
        JobSpec(mode="Turbo")
    with pytest.raises(ValueError):
        JobSpec(ranks=0)
    with pytest.raises(ValueError):
        JobSpec.from_dict({"app": "jacobi", "workers": 4})
    spec = JobSpec(**REFERENCE_KWARGS)
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_a_fractional_size_is_not_the_cached_integer_one():
    """``size=32.9`` used to truncate to 32 and hash equal to it, so a
    sweep over it was served the 32-point result."""
    with pytest.raises(ValueError, match="size must be an integer"):
        JobSpec(size=32.9)
    assert JobSpec(size=32.0) == JobSpec(size=32)  # integral floats are ints
    assert JobSpec(size=32.0).config_hash() == JobSpec(size=32).config_hash()


@pytest.mark.parametrize("field,value", [
    ("ranks", "2"), ("iters", None), ("ranks", True), ("seed", float("nan")),
    ("fault_seed", float("inf")), ("size", [32]), ("sanitize", "false"),
    ("collect", 2), ("backend", 5), ("machine", None), ("fault_spec", 7),
])
def test_wrong_types_are_value_errors_naming_the_field(field, value):
    """The range checks used to run before the int() normalisation, so a
    string rank count died in ``TypeError: '<' not supported``."""
    with pytest.raises(ValueError, match=field):
        JobSpec(**{field: value})


@pytest.mark.parametrize("app", ["latency", "bandwidth"])
@pytest.mark.parametrize("field,value", [
    ("fault_spec", "crash,rank=1,at=1e-4"), ("coll", "auto"),
    ("capture", "regions"), ("sanitize", True), ("collect", True),
    ("mode", "PureDevice"), ("obs", "spans"), ("obs", "off"),
    ("ranks", 1), ("ranks", 3), ("ranks", 64),
])
def test_osu_jobs_reject_options_they_never_apply(app, field, value):
    """The OSU runners ignore these, so hashing them would cache e.g. a
    "sanitized" result that never ran the sanitizer. (A device launch mode
    rides in the variant name: ``backend="uniconn:gpushmem:PureDevice"``.)
    An OSU run returns an empty report whatever ``obs`` says, and is one
    pair of GPUs: ``ranks`` 3 and 64 used to hash the inter-node pair's
    simulation twice under two more hashes."""
    with pytest.raises(ValueError, match=field):
        JobSpec(app=app, **{field: value})
    # Defaults (however spelled) and the options OSU does honour stay legal.
    JobSpec(app=app, coll="off", sanitize=0, obs="metrics", ranks=4, machine="lumi")


@pytest.mark.parametrize("app", ["latency", "bandwidth"])
def test_osu_ranks_name_the_two_placements(app):
    with pytest.raises(ValueError, match=r"2 \(an intra-node pair\) or 4 "
                                         r"\(an inter-node pair\), got 3"):
        JobSpec(app=app, ranks=3)
    assert JobSpec(app=app, ranks=2) != JobSpec(app=app, ranks=4)


def test_a_fault_seed_without_a_plan_is_the_same_run():
    """``launch`` builds no injector without a plan, so the seed cannot
    change the run and must not change the hash; an empty plan is no plan."""
    for spec in (JobSpec(fault_seed=9), JobSpec(fault_spec="", fault_seed=9),
                 JobSpec(fault_spec=";;", fault_seed=9)):
        assert spec.fault_seed == 0 and spec == JobSpec()
        assert spec.config_hash() == JobSpec().config_hash()
    planned = "crash,rank=1,at=1e-4"
    assert JobSpec(fault_spec=planned, fault_seed=9).config_hash() != \
        JobSpec(fault_spec=planned).config_hash()


def test_variant_resolution():
    assert JobSpec(app="jacobi", backend="mpi").variant() == "uniconn:mpi"
    assert JobSpec(app="jacobi", backend="gpushmem",
                   mode="PureDevice").variant() == "uniconn:gpushmem:PureDevice"
    assert JobSpec(app="cg", backend="elastic:mpi").variant() == "elastic:mpi"
    assert JobSpec(app="latency", backend="mpi-native").variant() == "mpi-native"
    assert JobSpec(app="bandwidth", backend="gpuccl").variant() == "uniconn:gpuccl"
    assert JobSpec(app="bandwidth", backend="mpi-rma").variant() == "uniconn:mpi-rma"
    assert JobSpec(app="latency", backend="uniconn:gpushmem-device").variant() == \
        "uniconn:gpushmem-device"


@pytest.mark.parametrize("spelled, bare", [
    ({"backend": "uniconn:mpi"}, {"backend": "mpi"}),
    ({"backend": "uniconn:mpi-rma", "app": "cg"}, {"backend": "mpi-rma", "app": "cg"}),
    ({"backend": "uniconn:gpushmem:PureDevice"},
     {"backend": "gpushmem", "mode": "PureDevice"}),
    ({"backend": "uniconn:gpushmem:PartialDevice", "mode": "PartialDevice"},
     {"backend": "gpushmem", "mode": "PartialDevice"}),
    ({"backend": "uniconn:gpushmem", "mode": "PureDevice"},
     {"backend": "gpushmem", "mode": "PureDevice"}),
    ({"backend": "uniconn:gpuccl", "app": "latency", "ranks": 2},
     {"backend": "gpuccl", "app": "latency", "ranks": 2}),
])
def test_one_simulation_has_one_hash_however_its_backend_is_spelled(spelled, bare):
    """A Uniconn variant in ``backend`` used to hash apart from the bare
    backend and mode it runs; it is now stored as them."""
    spec = JobSpec(**spelled)
    assert spec == JobSpec(**bare) and spec.to_dict() == JobSpec(**bare).to_dict()
    assert spec.config_hash() == JobSpec(**bare).config_hash()


def test_cg_honours_mode_and_rejects_capture():
    """``mode`` used to be hashed for cg and then dropped (PureDevice ran
    the PureHost simulation under a different hash); CG annotates no
    capture region, so ``capture`` is a field it cannot honour."""
    spec = JobSpec(app="cg", backend="gpushmem", mode="PureDevice")
    assert spec.variant() == "uniconn:gpushmem:PureDevice"
    with pytest.raises(ValueError, match="'capture'"):
        JobSpec(app="cg", capture="regions")


@pytest.mark.parametrize("coll", ["ring/0", "ring/-2"])
def test_coll_with_no_channels_is_rejected_before_it_is_hashed(coll):
    with pytest.raises(ValueError, match=re.escape(coll)):
        JobSpec(coll=coll)


def test_capture_auto_is_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown capture mode 'auto'"):
        JobSpec(capture="auto")
