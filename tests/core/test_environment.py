"""Tests for Environment, backend tags, config defaults, Memory."""

import numpy as np
import pytest

from repro import (
    Communicator,
    Coordinator,
    Environment,
    GpucclBackend,
    GpushmemBackend,
    MPIBackend,
    Memory,
    configured,
    launch,
)
from repro.backends.gpushmem import SymBuffer
from repro.core.backend import resolve_backend
from repro.errors import UniconnError
from repro.gpu import DeviceBuffer


def test_resolve_backend_by_name_type_and_default():
    assert resolve_backend("mpi") is MPIBackend
    assert resolve_backend("GPUCCL") is GpucclBackend
    assert resolve_backend(GpushmemBackend) is GpushmemBackend
    with configured(backend="gpuccl"):
        assert resolve_backend(None) is GpucclBackend
    with pytest.raises(UniconnError, match="unknown backend"):
        resolve_backend("nvlinkx")
    with pytest.raises(UniconnError, match="not a backend"):
        resolve_backend(42)


def test_backend_tags_not_instantiable():
    with pytest.raises(UniconnError):
        MPIBackend()


def test_environment_rank_queries():
    def main(ctx):
        env = Environment(ctx, backend=MPIBackend)
        out = (env.world_rank(), env.world_size(), env.node_rank(), env.node_size())
        env.set_device(env.node_rank())
        env.close()
        return out

    results = launch(main, 8, machine="perlmutter")
    assert results[5] == (5, 8, 1, 4)


def test_environment_close_twice_rejected():
    def main(ctx):
        env = Environment(ctx, backend=MPIBackend)
        env.close()
        with pytest.raises(UniconnError, match="twice"):
            env.close()
        return True

    assert all(launch(main, 1))


def test_environment_context_manager_closes():
    def main(ctx):
        with Environment(ctx, backend=MPIBackend) as env:
            env.set_device(0)
        return env.closed

    assert all(launch(main, 1))


def test_environment_exit_skips_finalize_on_error():
    """An exception inside the context manager must unwind, not hang on a
    collective finalize the other rank never joins."""

    def run(ctx):
        try:
            with Environment(ctx, backend="mpi") as env:
                env.set_device(env.node_rank())
                raise RuntimeError("boom")
        except RuntimeError:
            return "unwound"

    assert launch(run, 2) == ["unwound", "unwound"]


def test_retired_positional_spellings_are_plain_type_errors():
    """Optional arguments are keyword-only; the pre-keyword spellings get
    Python's own TypeError (no shim, no warning)."""

    def main(ctx):
        with pytest.raises(TypeError):
            Environment("mpi", ctx)
        with pytest.raises(UniconnError, match="rank context"):
            Environment("mpi")
        env = Environment(ctx, backend="mpi")
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream)
        buf = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 2, dtype=np.uint64)
        for call in (
            lambda: Memory.alloc(env, 4, np.uint64),
            lambda: comm.barrier(stream),
            lambda: comm.split(0, 1),
            lambda: Coordinator(env, stream),
            lambda: coord.post(buf, buf, 4, sig, 1, 0, comm, 7),
            lambda: coord.acknowledge(buf, 4, sig, 1, 0, comm, 7),
        ):
            with pytest.raises(TypeError):
                call()
        env.close()
        return True

    assert all(launch(main, 2))


def test_shmem_runtime_only_on_gpushmem_backend():
    def main(ctx):
        env = Environment(ctx, backend=MPIBackend)
        env.set_device(0)
        with pytest.raises(UniconnError, match="no GPUSHMEM runtime"):
            _ = env.shmem
        return True

    assert all(launch(main, 1))


@pytest.mark.parametrize("backend,expected_type", [
    ("mpi", DeviceBuffer),
    ("gpuccl", DeviceBuffer),
    ("gpushmem", SymBuffer),
])
def test_memory_alloc_type_per_backend(backend, expected_type):
    def main(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        if backend == "gpuccl":
            Communicator(env)  # gpuccl needs no alloc precondition; exercise anyway
        buf = Memory.alloc(env, 16, dtype=np.float32)
        ok = isinstance(buf, expected_type) and buf.size == 16
        Memory.free(env, buf)
        return ok

    assert all(launch(main, 2))


def test_memory_free_rejects_foreign_objects():
    def main(ctx):
        env = Environment(ctx, backend="mpi")
        env.set_device(0)
        with pytest.raises(UniconnError, match="not a device buffer"):
            Memory.free(env, np.zeros(4))
        return True

    assert all(launch(main, 1))


def test_gpuccl_uid_bootstrap_is_shared():
    def main(ctx):
        env = Environment(ctx, backend=GpucclBackend)
        env.set_device(env.node_rank())
        return env.bootstrap_gpuccl_uid()

    results = launch(main, 4)
    assert len(set(results)) == 1
