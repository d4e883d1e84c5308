"""The paper's measurement methodology (Section VI-A2).

Each measurement is repeated; the lowest and highest samples are dropped
and the rest averaged. (On the deterministic virtual clock the spread comes
only from carried-over link occupancy, so few repeats suffice; the paper
used ten on real hardware.) The OSU apps reduce their samples this way
themselves, so :func:`paper_mean` lives with them, in the model; this
harness package is outside the model fingerprint.
"""

from __future__ import annotations

from ..apps.osu.config import paper_mean

__all__ = ["paper_mean", "percent_diff"]


def percent_diff(measured: float, reference: float) -> float:
    """(measured - reference) / reference, in percent."""
    if reference == 0:
        raise ValueError("reference time is zero")
    return 100.0 * (measured - reference) / reference
