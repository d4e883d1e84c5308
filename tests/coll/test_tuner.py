"""CollTable / CollPolicy / CollTuner + the ``repro tune`` CLI."""

import io
import json
import re

import pytest

from repro.coll import (CollPolicy, CollSelection, CollTable,
                        CollTableError, CollTuner, KNOWN_ALGORITHMS,
                        SCHEMA_NAME, SCHEMA_VERSION,
                        resolve_policy, validate_table)


def _tuner(machine="perlmutter", gpus=64):
    return CollTuner(machine, gpus)


def test_table_roundtrip(tmp_path):
    t = _tuner()
    table = t.build_table()
    path = tmp_path / "table.json"
    table.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_NAME
    loaded = CollTable.load(str(path))
    assert loaded.entries == table.entries
    assert loaded.machine == table.machine


def test_table_lookup_bands():
    """Band ceilings are exclusive: a message exactly at a band edge
    belongs to the *upper* band, matching CollTuner.best's convention."""
    table = CollTable(machine="perlmutter")
    table.set_bands("sig", "gpuccl", "all_reduce",
                    [(1024, "recdbl"), (1 << 20, "hier"), (None, "ring")])
    look = lambda n: table.lookup("sig", "gpuccl", "all_reduce", n)
    assert look(64) == "recdbl"
    assert look(1023) == "recdbl"
    assert look(1024) == "hier"  # at the edge: upper band wins
    assert look((1 << 20) - 1) == "hier"
    assert look(1 << 20) == "ring"
    assert look(64 << 20) == "ring"
    assert table.lookup("sig", "gpuccl", "broadcast", 64) is None
    assert table.lookup("other", "gpuccl", "all_reduce", 64) is None


def test_table_lookup_agrees_with_best_at_band_edges():
    """Regression for the band-boundary off-by-one: at every probe size —
    including the exact sizes where the winner changes — the table lookup
    must return the same selection CollTuner.best scores."""
    t = _tuner(gpus=8)
    table = t.build_table()
    sig = t.topo.signature()
    for backend in t.backends():
        for kind in ("all_reduce", "all_gather"):
            for size in t.PROBE_SIZES:
                best, _ = t.best(backend, kind, size)
                got = table.lookup(sig, backend, kind, size)
                assert got.describe() == best.describe(), (
                    f"{backend}/{kind}@{size}: table={got.describe()} "
                    f"best={best.describe()}")


def test_tuner_selects_differently_small_vs_large():
    """Acceptance: at 64 GPUs the small- and large-message winners differ
    on at least two machine presets."""
    differing = 0
    for machine in ("perlmutter", "lumi"):
        t = _tuner(machine)
        small, _ = t.best("gpuccl", "all_reduce", 64)
        large, _ = t.best("gpuccl", "all_reduce", 32 << 20)
        if small != large:
            differing += 1
            assert large == "ring"  # bandwidth-optimal ring must win large
    assert differing >= 2


def test_crossovers_reported():
    """The table's band edges are the crossovers: each closes a band whose
    winner differs from the next one's, at a probe size."""
    t = _tuner()
    bands = t.build_table().entries[t.topo.signature()]["gpuccl"]["all_reduce"]
    assert len(bands) >= 2, "expected at least one selection crossover at 64 GPUs"
    for (nbytes, *small_sel), (_, *large_sel) in zip(bands, bands[1:]):
        assert small_sel != large_sel
        assert nbytes in t.PROBE_SIZES


def test_protocol_crossover_ll_to_simple():
    """The paper's LL-wins-small / Simple-wins-large transition appears on
    at least two machine profiles for the GPU kernel backend."""
    for machine in ("perlmutter", "lumi"):
        t = _tuner(machine, gpus=8)
        small, _ = t.best("gpuccl", "all_reduce", 64)
        large, _ = t.best("gpuccl", "all_reduce", 32 << 20)
        assert small.protocol == "LL", (machine, small.describe())
        assert large.protocol == "Simple", (machine, large.describe())


def test_build_table_band_structure():
    table = _tuner().build_table()
    for backends in table.entries.values():
        for kinds in backends.values():
            for bands in kinds.values():
                assert bands[-1][0] is None  # last band open-ended
                ceilings = [band[0] for band in bands[:-1]]
                assert ceilings == sorted(ceilings)
                for _, algo, protocol, channels in bands:
                    assert algo in KNOWN_ALGORITHMS
                    assert protocol in (None, "LL", "LL128", "Simple")
                    assert isinstance(channels, int) and channels >= 1


def test_policy_from_table_respects_bands():
    t = _tuner()
    table = t.build_table()
    policy = CollPolicy.from_table(table)
    small = policy.select("gpuccl", "all_reduce", 64, t.topo)
    large = policy.select("gpuccl", "all_reduce", 32 << 20, t.topo)
    assert small != large
    # Unknown signature -> the default runs.
    other = CollTuner("marenostrum5", 8).topo
    assert policy.select("gpuccl", "all_reduce", 64, other) is None


def test_policy_fixed_falls_back_when_inapplicable():
    topo = CollTuner("perlmutter", 7).topo
    policy = CollPolicy.fixed("bruck")  # bruck is allgather-only
    assert policy.select("mpi", "all_reduce", 64, topo) is None
    assert policy.select("mpi", "all_gather", 64, topo) == "bruck"


def test_schema_rejects_malformed_tables():
    good = _tuner().build_table().to_doc()
    bad_cases = [
        {**good, "schema": "something.else"},
        {**good, "version": 99},
        {**good, "machine": None},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": []}}}},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": [[64, "ring"]]}}}},
        {**good, "entries": {"sig": {"gpuccl": {"all_reduce": [[None, ""]]}}}},
        {**good, "entries": {"sig": {"gpuccl": {"bogus_kind":
                                                [[None, "ring"]]}}}},
        {**good, "entries": {"sig": {"bogus_backend": {"all_reduce":
                                                       [[None, "ring"]]}}}},
    ]
    for doc in bad_cases:
        with pytest.raises(ValueError):
            validate_table(doc)


def test_resolve_policy_forms(tmp_path):
    assert resolve_policy(None) is None
    assert resolve_policy(False) is None
    assert resolve_policy("off") is None
    assert resolve_policy("auto").mode == "auto"
    assert resolve_policy("ring").mode == "fixed"
    table = _tuner().build_table()
    path = tmp_path / "t.json"
    table.save(str(path))
    assert resolve_policy(str(path)).mode == "table"
    with pytest.raises(ValueError):
        resolve_policy("no-such-algorithm")
    with pytest.raises(TypeError):
        resolve_policy(42)


def test_unknown_schema_version_raises_coll_table_error():
    """A retired (v1), future or garbage version must fail loudly with a
    CollTableError naming the supported version, never a KeyError from
    half-parsed entries."""
    doc = _tuner(gpus=8).build_table().to_doc()
    for version in (1, 3, 99, None, "2"):
        bad = {**doc, "version": version}
        with pytest.raises(CollTableError, match=rf"expected {SCHEMA_VERSION}$"):
            CollTable.from_doc(bad)


def test_cli_tune_coll_dump(tmp_path):
    from repro.cli import main

    dest = tmp_path / "coll_table.json"
    out = io.StringIO()
    rc = main(["tune", "--gpus", "64", "--machine", "perlmutter",
               "--dump", str(dest)], out=out)
    assert rc == 0
    assert "schema valid" in out.getvalue()
    doc = json.loads(dest.read_text())
    validate_table(doc)
    table = CollTable.from_doc(doc)
    sig = CollTuner("perlmutter", 64).topo.signature()
    assert table.lookup(sig, "gpuccl", "all_reduce", 32 << 20) == "ring"


@pytest.mark.parametrize("spec", ["ring/0", "ring/-2", "tree+LL/0"])
def test_selection_parse_rejects_channel_counts_below_one(spec):
    """A zero-rail selection used to parse, hash into a JobSpec and then
    divide by zero inside schedule_cost."""
    with pytest.raises(ValueError, match=re.escape(spec)):
        CollSelection.parse(spec)
