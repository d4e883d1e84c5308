"""Tests for the OSU-style microbenchmarks: sanity plus the qualitative
shapes of the paper's Figs. 2-4 (who wins where)."""

import pytest

from repro.apps.osu import OsuConfig, run_bandwidth, run_latency
from repro.hardware import lumi, perlmutter

FAST = OsuConfig(sizes=(8, 1024, 1 << 20), iters_small=6, warmup_small=1,
                 iters_large=4, warmup_large=1, window=16, repeats=3)
TINY = OsuConfig(sizes=(8,), iters_small=6, warmup_small=1, repeats=3)


@pytest.mark.parametrize("variant", [
    "mpi-native", "gpuccl-native", "gpushmem-host-native",
    "gpushmem-device-native", "uniconn:mpi", "uniconn:gpuccl",
    "uniconn:gpushmem", "uniconn:gpushmem-device", "uniconn:mpi-rma",
])
def test_latency_variants_return_sane_values(variant):
    res = run_latency(variant, FAST)
    assert set(res) == set(FAST.sizes)
    for size, lat in res.items():
        assert 1e-7 < lat < 1e-2, (variant, size, lat)
    assert res[1 << 20] > res[8]  # bigger is slower


@pytest.mark.parametrize("variant", [
    "mpi-native", "gpuccl-native", "gpushmem-host-native",
    "gpushmem-device-native", "uniconn:mpi", "uniconn:gpuccl", "uniconn:gpushmem",
    "uniconn:gpushmem-device", "uniconn:mpi-rma",
])
def test_bandwidth_variants_return_sane_values(variant):
    res = run_bandwidth(variant, FAST)
    m = perlmutter()
    for size, bw in res.items():
        assert 0 < bw <= m.intra_bandwidth * 1.01, (variant, size, bw)
    assert res[1 << 20] > res[8]  # large messages achieve more bandwidth


def test_large_message_bandwidth_approaches_link_rate():
    res = run_bandwidth("gpuccl-native", OsuConfig(sizes=(4 << 20,), iters_large=4,
                                                   warmup_large=1, window=16, repeats=3))
    m = perlmutter()
    assert res[4 << 20] > 0.5 * m.intra_bandwidth


def test_internode_latency_higher_than_intranode():
    intra = run_latency("mpi-native", TINY, inter_node=False)[8]
    inter = run_latency("mpi-native", TINY, inter_node=True)[8]
    assert inter > intra


def test_fig2_shape_intranode_small_messages():
    """Paper Fig. 2a: intra-node small messages — NVSHMEM device-initiated
    is fastest, NCCL slowest (kernel launch per message)."""
    lat = {v: run_latency(v, TINY)[8]
           for v in ("mpi-native", "gpuccl-native", "gpushmem-device-native")}
    assert lat["gpushmem-device-native"] < lat["mpi-native"] < lat["gpuccl-native"]


def test_fig2_shape_internode_small_messages():
    """Paper Fig. 2b: inter-node small messages — MPI's eager CPU path wins;
    device-initiated pays the proxy."""
    lat = {v: run_latency(v, TINY, inter_node=True)[8]
           for v in ("mpi-native", "gpuccl-native", "gpushmem-device-native")}
    assert lat["mpi-native"] < lat["gpuccl-native"]
    assert lat["mpi-native"] < lat["gpushmem-device-native"]


def test_fig2_shape_lumi_rccl_small_messages_poor():
    """Paper Fig. 2c/d: RCCL on LUMI is much worse than NCCL on Perlmutter
    for small messages."""
    perl = run_latency("gpuccl-native", TINY, machine="perlmutter")[8]
    lumi = run_latency("gpuccl-native", TINY, machine="lumi")[8]
    assert lumi > 1.5 * perl


UNICONN = ("uniconn:mpi", "uniconn:gpuccl", "uniconn:gpushmem", "uniconn:gpushmem-device")


@pytest.mark.parametrize("machine, inter_node, winner", [
    ("perlmutter", False, "uniconn:gpushmem-device"),
    ("perlmutter", True, "uniconn:mpi"),
    ("marenostrum5", False, "uniconn:gpushmem-device"),
])
def test_small_message_winner_among_uniconn_variants(machine, inter_node, winner):
    """Fig. 2's ordering through the Uniconn API, at 8 B: device-initiated
    one-sided wins intra-node on the NVLink machines (H100 NVLink4 on
    MareNostrum5 too); MPI's eager CPU path wins inter-node."""
    lat = {v: run_latency(v, TINY, machine=machine, inter_node=inter_node)[8]
           for v in UNICONN}
    assert min(lat, key=lat.get) == winner, lat


def test_rocshmem_lumi_keeps_mpi_the_small_message_winner():
    """The immature rocSHMEM's heavy overheads keep MPI ahead of the
    host-API GPUSHMEM at 8 B intra-node on LUMI, unlike NVSHMEM on the
    NVIDIA machines."""
    spec = lumi(enable_rocshmem=True)
    lat = {v: run_latency(v, TINY, machine=spec)[8] for v in UNICONN[:3]}
    assert min(lat, key=lat.get) == "uniconn:mpi", lat


def test_unknown_variants_rejected():
    with pytest.raises(ValueError, match="unknown latency variant"):
        run_latency("smoke-signals", TINY)
    with pytest.raises(ValueError, match="unknown bandwidth variant"):
        run_bandwidth("smoke-signals", TINY)


def test_uniconn_mpi_rma_latency_variant_works():
    res = run_latency("uniconn:mpi-rma", TINY)
    assert 0 < res[8] < 1e-3


@pytest.mark.parametrize("pair", [
    ("mpi-native", "uniconn:mpi", 0.40),
    ("gpuccl-native", "uniconn:gpuccl", 0.05),
    ("gpushmem-host-native", "uniconn:gpushmem", 0.05),
    ("gpushmem-device-native", "uniconn:gpushmem-device", 0.01),
])
def test_uniconn_latency_overhead_bounded(pair):
    """Figs. 3-4: Uniconn's overhead vs native stays small; the MPI backend
    is the worst (stream query + decision logic), the device API is nearly
    free (inlined)."""
    native, uni, bound = pair
    cfg = OsuConfig(sizes=(64, 65536), iters_small=8, warmup_small=1,
                    iters_large=4, warmup_large=1, repeats=3)
    res_n = run_latency(native, cfg)
    res_u = run_latency(uni, cfg)
    for size in cfg.sizes:
        overhead = (res_u[size] - res_n[size]) / res_n[size]
        assert overhead < bound, (native, size, overhead)
        assert overhead > -0.25, (native, size, overhead)
