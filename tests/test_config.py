"""Tests for the global configuration (the compile-time-definitions analogue)."""

import pytest

from repro.config import UniconnConfig, configured, get_config, set_config
from repro.core.backend import GpucclBackend, resolve_backend
from repro.core.launch_mode import LaunchMode, resolve_launch_mode
from repro.errors import UniconnError


def test_defaults():
    cfg = UniconnConfig()
    assert cfg.backend == "mpi"
    assert cfg.launch_mode == "PureHost"
    assert cfg.mpi_rma is False
    assert cfg.costs.dispatch > 0


def test_configured_restores_on_exit():
    before = get_config()
    with configured(backend="gpuccl", mpi_rma=True) as cfg:
        assert cfg.backend == "gpuccl"
        assert get_config().mpi_rma is True
    assert get_config() == before


def test_configured_restores_on_exception():
    before = get_config()
    with pytest.raises(RuntimeError):
        with configured(backend="gpushmem"):
            raise RuntimeError("x")
    assert get_config() == before


def test_set_config_persists():
    before = get_config()
    try:
        cfg = set_config(launch_mode="PureDevice")
        assert get_config() is cfg
        assert resolve_launch_mode(None) is LaunchMode.PureDevice
    finally:
        set_config(**{f: getattr(before, f) for f in ("backend", "launch_mode", "costs", "mpi_rma")})


def test_defaults_feed_resolvers():
    with configured(backend="gpuccl", launch_mode="PartialDevice"):
        assert resolve_backend(None) is GpucclBackend
        assert resolve_launch_mode(None) is LaunchMode.PartialDevice


def test_unknown_fields_rejected():
    with pytest.raises(TypeError):
        set_config(not_a_field=1)


def test_config_is_only_the_compile_time_definitions():
    """Run options are launch() arguments, not ambient config: the config
    has no such field, and launch()'s None means the literal default."""
    import dataclasses

    from repro import launch

    assert {f.name for f in dataclasses.fields(UniconnConfig)} == {
        "backend", "launch_mode", "costs", "mpi_rma"}
    with pytest.raises(TypeError):
        set_config(capture="regions")
    with pytest.raises(TypeError):
        set_config(obs_level="spans")

    def fn(ctx):
        ctx.engine.sleep(1e-6 * (ctx.rank + 1))
        return ctx.rank

    implicit = launch(fn, 2, obs=None, sanitize=None, capture=None, fault_plan=None)
    explicit = launch(fn, 2, obs="metrics", sanitize=False, capture="off")
    assert implicit == explicit
    assert implicit.stats == explicit.stats
    assert implicit.metrics.as_dict() == explicit.metrics.as_dict()


def test_launch_mode_resolution():
    assert resolve_launch_mode("PureHost") is LaunchMode.PureHost
    assert resolve_launch_mode(LaunchMode.PureDevice) is LaunchMode.PureDevice
    with pytest.raises(UniconnError, match="unknown launch mode"):
        resolve_launch_mode("Hybrid")


def test_launch_mode_device_api_flags():
    assert not LaunchMode.PureHost.uses_device_api
    assert LaunchMode.PartialDevice.uses_device_api
    assert LaunchMode.PureDevice.uses_device_api
