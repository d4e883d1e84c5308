"""Unit tests for the alpha-beta link/path model."""

import pytest

from repro.errors import HardwareError
from repro.hardware import Link, Path


def mk_link(lat=1e-6, bw=1e9, ovh=0.0, name="l"):
    return Link(name=name, latency=lat, bandwidth=bw, per_message_overhead=ovh)


def test_link_uncontended_transfer_time():
    link = mk_link(lat=2e-6, bw=1e9)
    t = link.reserve(0.0, 1000)
    assert t.start == 0.0
    assert t.inject_done == pytest.approx(1e-6)
    assert t.delivered == pytest.approx(3e-6)


def test_link_per_message_overhead_added():
    link = mk_link(lat=0.0, bw=1e9, ovh=5e-7)
    t = link.reserve(0.0, 1000)
    assert t.delivered == pytest.approx(5e-7 + 1e-6)


def test_link_contention_serializes():
    link = mk_link(lat=1e-6, bw=1e9)
    t1 = link.reserve(0.0, 1000)
    t2 = link.reserve(0.0, 1000)
    assert t2.start == pytest.approx(t1.inject_done)
    assert t2.delivered > t1.delivered


def test_link_idle_gap_respected():
    link = mk_link(lat=0.0, bw=1e9)
    link.reserve(0.0, 1000)
    t = link.reserve(10.0, 1000)
    assert t.start == 10.0


def test_link_zero_byte_message():
    link = mk_link(lat=1e-6, bw=1e9, ovh=1e-7)
    t = link.reserve(0.0, 0)
    assert t.delivered == pytest.approx(1.1e-6)


def test_link_negative_size_rejected():
    with pytest.raises(HardwareError):
        mk_link().reserve(0.0, -1)


def test_link_invalid_bandwidth_rejected():
    with pytest.raises(HardwareError):
        Link(name="bad", latency=0.0, bandwidth=0.0)


def test_link_negative_latency_rejected():
    with pytest.raises(HardwareError):
        Link(name="bad", latency=-1.0, bandwidth=1.0)


def test_path_latency_sums_bandwidth_bottlenecks():
    p = Path([mk_link(lat=1e-6, bw=4e9, name="a"), mk_link(lat=2e-6, bw=1e9, name="b")])
    assert p.latency == pytest.approx(3e-6)
    assert p.bandwidth == pytest.approx(1e9)
    assert p.name == "a+b"


def test_path_reserve_cut_through():
    fast = mk_link(lat=1e-6, bw=4e9, name="fast")
    slow = mk_link(lat=1e-6, bw=1e9, name="slow")
    p = Path([fast, slow])
    t = p.reserve(0.0, 4000)
    # Serialization set by the slow link: 4000/1e9 = 4us; latency 2us total.
    assert t.inject_done == pytest.approx(4e-6)
    assert t.delivered == pytest.approx(6e-6)
    # Both links were occupied for their own serialization time.
    assert fast.busy_until == pytest.approx(1e-6)
    assert slow.busy_until == pytest.approx(4e-6)


def test_path_contention_through_shared_link():
    shared = mk_link(lat=0.0, bw=1e9, name="shared")
    p1 = Path([mk_link(name="a"), shared])
    p2 = Path([mk_link(name="b"), shared])
    t1 = p1.reserve(0.0, 1000)
    t2 = p2.reserve(0.0, 1000)
    assert t2.start >= t1.inject_done


def test_path_transfer_time_is_stateless():
    link = mk_link(lat=1e-6, bw=1e9)
    p = Path([link])
    before = link.busy_until
    assert p.transfer_time(1000) == pytest.approx(2e-6)
    assert link.busy_until == before


def test_empty_path_rejected():
    with pytest.raises(HardwareError):
        Path([])
