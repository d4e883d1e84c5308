"""Unit tests for device buffers (allocation, views, pointer arithmetic)."""

import numpy as np
import pytest

from repro.errors import GpuError
from repro.gpu import Device
from repro.hardware import Cluster, perlmutter
from repro.sim import Engine


@pytest.fixture
def device():
    return Device(Engine(), Cluster(perlmutter(), 1), gpu_id=0)


def test_malloc_zero_initialized(device):
    buf = device.malloc(16, np.float32)
    assert buf.size == 16
    assert buf.dtype == np.float32
    assert np.all(buf.read() == 0)


def test_malloc_tracks_allocation(device):
    before = device.allocated_bytes
    buf = device.malloc(1024, np.float64)
    assert device.allocated_bytes == before + 8192
    device.free(buf)
    assert device.allocated_bytes == before


def test_out_of_memory(device):
    with pytest.raises(GpuError, match="out of memory"):
        device.malloc(device.model.memory_bytes, np.float32)


def test_double_free_rejected(device):
    buf = device.malloc(4)
    device.free(buf)
    with pytest.raises(GpuError, match="double free"):
        device.free(buf)


def test_free_view_rejected(device):
    buf = device.malloc(8)
    with pytest.raises(GpuError, match="buffer view"):
        device.free(buf[2:4])


def test_use_after_free_rejected(device):
    buf = device.malloc(4)
    view = buf[1:3]
    device.free(buf)
    with pytest.raises(GpuError, match="freed"):
        buf.read()
    with pytest.raises(GpuError, match="freed"):
        view.read()


def test_slicing_shares_storage(device):
    buf = device.malloc(10)
    view = buf[2:6]
    view.fill(7.0)
    assert np.all(buf.read()[2:6] == 7.0)
    assert buf.read()[0] == 0.0


def test_offset_pointer_arithmetic(device):
    buf = device.malloc(10)
    buf.offset(4, 3).fill(1.0)
    expected = np.zeros(10, np.float32)
    expected[4:7] = 1.0
    np.testing.assert_array_equal(buf.read(), expected)


def test_a_slice_is_one_view_object(device):
    buf = device.malloc(10)
    view = buf.offset(4, 3)
    assert buf.offset(4, 3) is view and buf[4:7] is view and buf.offset_by(4, 3) is view
    assert buf[2:8][2:5] is view  # keyed by (allocation, offset, length)
    assert buf[:] is not buf  # a view is never its root (only a root is freed)
    assert buf[5:2] is buf[5:5] and buf[5:2].size == 0  # reversed: empty, as numpy
    other = device.malloc(10)
    assert other.offset(4, 3) is not view


def test_free_and_close_drop_the_views(device):
    a, b = device.malloc(8), device.malloc(8)
    a[1:3], b[1:3]
    device.free(a)
    with pytest.raises(GpuError, match="freed"):
        a[1:3]  # the freed-root check runs on every lookup
    assert [where[0] for where in device._views] == [b]
    device.close()
    assert device._views == {}


def test_write_and_read_roundtrip(device):
    buf = device.malloc(5)
    buf.write(np.arange(5, dtype=np.float32))
    np.testing.assert_array_equal(buf.read(), np.arange(5, dtype=np.float32))


def test_write_partial_count(device):
    buf = device.malloc(5)
    buf.write(np.ones(5, np.float32), count=2)
    np.testing.assert_array_equal(buf.read(), [1, 1, 0, 0, 0])


def test_write_overflow_rejected(device):
    buf = device.malloc(2)
    with pytest.raises(GpuError, match="write of 5"):
        buf.write(np.ones(5, np.float32))


def test_buffer_to_buffer_write(device):
    a = device.malloc(4)
    b = device.malloc(4)
    a.write(np.arange(4, dtype=np.float32))
    b.write(a)
    np.testing.assert_array_equal(b.read(), [0, 1, 2, 3])


def test_integer_index_rejected(device):
    buf = device.malloc(4)
    with pytest.raises(GpuError, match="slices"):
        buf[0]


def test_negative_malloc_rejected(device):
    with pytest.raises(GpuError):
        device.malloc(-1)
