"""Configuration for the OSU-style microbenchmarks (paper Section VI-B)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

__all__ = ["OsuConfig", "default_sizes", "paper_mean"]


def paper_mean(samples: Sequence[float]) -> float:
    """The paper's reduction of repeated samples (Section VI-A2): drop min
    and max (when there are >= 3 samples), then average."""
    xs = sorted(samples)
    if len(xs) == 0:
        raise ValueError("no samples")
    if len(xs) >= 3:
        xs = xs[1:-1]
    return sum(xs) / len(xs)


def default_sizes(min_bytes: int = 4, max_bytes: int = 4 << 20) -> List[int]:
    """Power-of-two message sizes, in bytes (float32 elements underneath)."""
    sizes = []
    b = min_bytes
    while b <= max_bytes:
        sizes.append(b)
        b *= 2
    return sizes


@dataclass(frozen=True)
class OsuConfig:
    """Iteration counts follow the paper's scheme (scaled down: the virtual
    clock is deterministic, so far fewer repetitions are needed — the knob
    is here to run paper-scale counts if desired)."""

    sizes: Tuple[int, ...] = tuple(default_sizes())
    small_cutoff: int = 8 * 1024  # bytes; below this use the 'small' counts
    iters_small: int = 40
    warmup_small: int = 4
    iters_large: int = 12
    warmup_large: int = 2
    window: int = 64  # concurrent messages in the bandwidth benchmark
    repeats: int = 3  # paper: 10 repeats, drop min/max, average

    def iters_for(self, nbytes: int) -> Tuple[int, int]:
        """(iterations, warmup) for a message size per the paper's scheme."""
        if nbytes < self.small_cutoff:
            return self.iters_small, self.warmup_small
        return self.iters_large, self.warmup_large
