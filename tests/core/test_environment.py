"""Tests for Environment, backend tags, launch modes, the literal
defaults, Memory."""

import dataclasses

import numpy as np
import pytest

from repro import (
    Communicator,
    Coordinator,
    Environment,
    GpucclBackend,
    GpushmemBackend,
    LaunchMode,
    MPIBackend,
    Memory,
    launch,
)
from repro.backends.gpushmem import SymBuffer
from repro.core.backend import resolve_backend
from repro.core.launch_mode import resolve_launch_mode
from repro.errors import UniconnError
from repro.gpu import DeviceBuffer
from repro.hardware import MACHINES, UniconnCosts, get_machine


def test_resolve_backend_by_name_type_and_default():
    assert resolve_backend("mpi") is MPIBackend
    assert resolve_backend("mpi-rma") is MPIBackend
    assert resolve_backend("GPUCCL") is GpucclBackend
    assert resolve_backend(GpushmemBackend) is GpushmemBackend
    assert resolve_backend(None) is MPIBackend
    with pytest.raises(UniconnError, match="unknown backend"):
        resolve_backend("nvlinkx")
    with pytest.raises(UniconnError, match="not a backend"):
        resolve_backend(42)


def test_defaults():
    """What a run does not name is a literal, never ambient state: a bare
    Environment is two-sided MPI, and every preset charges the same
    Uniconn wrapper costs."""
    for name in MACHINES:
        assert get_machine(name).uniconn == UniconnCosts()
    assert UniconnCosts().dispatch > 0

    def main(ctx):
        env = Environment(ctx)
        return env.backend is MPIBackend, env.mpi_rma

    assert list(launch(main, 1)) == [(True, False)]


def test_defaults_feed_resolvers():
    """The resolvers' ``None`` is the literal MPI / PureHost."""
    assert resolve_backend(None) is MPIBackend
    assert resolve_launch_mode(None) is LaunchMode.PureHost


def test_launch_mode_resolution():
    assert resolve_launch_mode("PureHost") is LaunchMode.PureHost
    assert resolve_launch_mode(LaunchMode.PureDevice) is LaunchMode.PureDevice
    with pytest.raises(UniconnError, match="unknown launch mode"):
        resolve_launch_mode("Hybrid")


def test_launch_mode_device_api_flags():
    assert not LaunchMode.PureHost.uses_device_api
    assert LaunchMode.PartialDevice.uses_device_api
    assert LaunchMode.PureDevice.uses_device_api


def test_machine_uniconn_costs_reach_one_run_only():
    """``MachineSpec.uniconn`` is what Environment charges from; a replaced
    copy changes the run it is passed to and no other."""
    slow = dataclasses.replace(get_machine("perlmutter"),
                               uniconn=UniconnCosts(dispatch=1e-3))

    def main(ctx):
        env = Environment(ctx, backend="mpi")
        env.set_device(0)
        return env.costs.dispatch

    assert list(launch(main, 1, machine=slow)) == [1e-3]
    assert list(launch(main, 1)) == [UniconnCosts().dispatch]


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
