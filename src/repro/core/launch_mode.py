"""Launch modes and thread groups (paper Sections IV-E1 and IV-F4)."""

from __future__ import annotations

from enum import Enum
from typing import Union

from ..errors import UniconnError

__all__ = ["LaunchMode", "ThreadGroup", "resolve_launch_mode"]


class LaunchMode(Enum):
    """How a Coordinator launches kernels and which APIs it enables.

    - ``PureHost``: host-side communication only; kernels are compute-only.
    - ``PureDevice``: computation *and* communication inside one resident
      kernel (GPUSHMEM only).
    - ``PartialDevice``: device-initiated sends from inside kernels, with
      synchronization completed by host APIs; collectives behave like
      ``PureHost`` (GPUSHMEM only).
    """

    PureHost = "PureHost"
    PartialDevice = "PartialDevice"
    PureDevice = "PureDevice"

    @property
    def uses_device_api(self) -> bool:
        """True for the modes that run communication inside kernels."""
        return self is not LaunchMode.PureHost


class ThreadGroup(Enum):
    """Device-side execution granularity for communication primitives."""

    THREAD = "thread"
    WARP = "warp"
    BLOCK = "block"


def resolve_launch_mode(mode: Union[str, LaunchMode, None]) -> LaunchMode:
    """Normalize a mode/name/None (= PureHost) to a LaunchMode."""
    if mode is None:
        return LaunchMode.PureHost
    if isinstance(mode, LaunchMode):
        return mode
    try:
        return LaunchMode[str(mode)]
    except KeyError:
        raise UniconnError(
            f"unknown launch mode {mode!r}; known: {[m.name for m in LaunchMode]}"
        ) from None
