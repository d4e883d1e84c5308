"""Tests for performance-guided automatic backend selection."""

import pytest

from repro.core.selection import DEFAULT_PROBE_SIZES, SelectionTable
from repro.errors import UniconnError


@pytest.fixture(scope="module")
def table():
    # Small probe grid keeps tuning fast; behaviour is deterministic.
    return SelectionTable.tune("perlmutter", probe_sizes=(8, 4096, 1 << 20), iters=8)


def test_tuning_covers_both_localities_and_all_backends(table):
    for loc in ("intra", "inter"):
        assert set(table.measurements[loc]) == {8, 4096, 1 << 20}
        for size, cands in table.measurements[loc].items():
            assert {"mpi", "gpuccl", "gpushmem", "gpushmem-device"} <= set(cands)
            assert all(t > 0 for t in cands.values())


def test_best_matches_paper_fig2_shapes(table):
    # Intra-node small messages: device-initiated one-sided wins.
    assert table.best(8, inter_node=False) == "gpushmem-device"
    # Inter-node small messages: MPI's eager CPU path wins.
    assert table.best(8, inter_node=True) == "mpi"


def test_host_api_only_filter(table):
    best = table.best(8, inter_node=False, host_api_only=True)
    assert best != "gpushmem-device"


def test_bucket_uses_nearest_log_size(table):
    # 6000 bytes is closer to 4096 than to 1 MiB in log space.
    assert table.candidates(6000) == table.candidates(4096)
    assert table.candidates(300_000) == table.candidates(1 << 20)


def test_invalid_queries(table):
    with pytest.raises(UniconnError):
        table.best(0)
    empty = SelectionTable(machine="x", probe_sizes=(8,))
    with pytest.raises(UniconnError, match="tune first"):
        empty.best(8)


def test_crossover_structure(table):
    crossings = table.crossover_sizes(inter_node=False)
    assert crossings[0][0] == 8
    assert len(crossings) >= 1
    # Every winner is a known backend name.
    for _, winner in crossings:
        assert winner in ("mpi", "gpuccl", "gpushmem", "gpushmem-device")


def test_json_roundtrip(table, tmp_path):
    path = tmp_path / "selection.json"
    table.save(str(path))
    loaded = SelectionTable.load(str(path))
    assert loaded.machine == table.machine
    assert loaded.probe_sizes == table.probe_sizes
    assert loaded.measurements == table.measurements
    assert loaded.best(8) == table.best(8)


def test_lumi_tuning_skips_gpushmem():
    t = SelectionTable.tune("lumi", probe_sizes=(8,), iters=6)
    cands = t.candidates(8)
    assert set(cands) == {"mpi", "gpuccl"}


def test_selection_picks_actual_minimum(table):
    for loc in (False, True):
        for size in (8, 4096, 1 << 20):
            cands = table.candidates(size, inter_node=loc)
            assert cands[table.best(size, inter_node=loc)] == min(cands.values())
