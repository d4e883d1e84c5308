"""Deterministic sweep-matrix expansion, shared with the benchmarks.

Every sweep in the repo — the chaos matrix, the collective benchmark
grids, ``repro submit --sweep`` — is the same shape: a dict of axes, each
a list of values, expanded into the cross product in a fixed order (first
axis outermost, values in the order given). Hoisting the expansion here
(re-exported through ``benchmarks/_common.py``) keeps every harness's
scenario ordering — and therefore every seeded scenario's identity —
identical by construction.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Iterable, List, Mapping, Sequence

__all__ = ["MAX_SWEEP_POINTS", "expand_matrix", "parse_sweep", "sweep_specs"]

#: Largest cross product one sweep may ask for. Every grid in the repo has
#: tens to hundreds of points; a queue line with three 1000-value axes
#: would otherwise make the service build 10^9 specs. A constant, not an
#: option: a bigger study is several sweeps.
MAX_SWEEP_POINTS = 10_000


def expand_matrix(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cross product of ``axes`` as a list of dicts, deterministic order.

    The first axis varies slowest (outermost loop), matching the nested
    ``for`` loops it replaces; each result dict preserves the axes' key
    order. Scalar axis values are treated as one-element lists. A product
    of more than :data:`MAX_SWEEP_POINTS` points is a ``ValueError``, raised
    from the axis lengths alone — before anything is built.
    """
    if not axes:
        return [{}]
    names = list(axes)
    columns = []
    points = 1
    for name in names:
        values = axes[name]
        if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple, range)):
            values = [values]
        if len(values) == 0:
            raise ValueError(f"sweep axis {name!r} has no values")
        columns.append(values)
        points *= len(values)
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep asks for {points} points; the limit is "
                         f"{MAX_SWEEP_POINTS} per sweep")
    return [dict(zip(names, combo)) for combo in product(*columns)]


def parse_sweep(tokens: Iterable[str]) -> Dict[str, List[Any]]:
    """Parse CLI sweep tokens (``app=jacobi,cg size=64,128``) into axes.

    Values are comma-separated; each is coerced to int, then float, else
    kept as a string ("none"/"null" become None). Axis order follows the
    token order, which fixes the expansion order.
    """
    axes: Dict[str, List[Any]] = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"malformed sweep token {token!r} "
                             f"(expected axis=value[,value...])")
        name, _, raw = token.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"malformed sweep token {token!r} (empty axis name)")
        if name in axes:
            raise ValueError(f"duplicate sweep axis {name!r}")
        axes[name] = [_coerce(v) for v in raw.split(",") if v != ""]
        if not axes[name]:
            raise ValueError(f"sweep axis {name!r} has no values")
    return axes


def _coerce(text: str) -> Any:
    text = text.strip()
    if text.lower() in ("none", "null"):
        return None
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def sweep_specs(axes: Mapping[str, Sequence[Any]],
                defaults: Mapping[str, Any] = ()) -> list:
    """Expand ``axes`` over JobSpec fields into a list of JobSpecs.

    ``defaults`` supplies the fields the sweep doesn't vary; axis values
    override them point by point.
    """
    from .jobspec import JobSpec

    base = dict(defaults or {})
    return [JobSpec.from_dict({**base, **point}) for point in expand_matrix(axes)]
