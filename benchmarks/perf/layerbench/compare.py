"""``--compare A.json B.json``: judge B against A, one row per workload.

Verdicts follow the choosing-metrics guide: a metric is *regressed* (or
*improved*) only when its median moved by more than the bound **and** every
reading of B lies beyond every reading of A; a move the pass spread (min-max)
cannot separate is *unresolved*, as is a move within the bound when either
side's own spread exceeds it. ``sim_time_s`` and ``fail_share`` have bound 0:
virtual time and failures compare exactly between two runs of one seed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, TextIO, Tuple

from . import END_TO_END

__all__ = ["compare_files", "load_runs", "merge_run", "validate_run"]

RESULTS_SCHEMA = "repro.perfbench.results/1"
RUN_SCHEMA = "repro.perfbench.run/1"

_RUN_FIELDS = {"schema": str, "workload": str, "seed": int, "seconds": (int, float),
               "trace": int, "scale": str, "inputs": dict, "correct": bool,
               "attempted": int, "failed": int, "failures": list, "metrics": dict,
               "host_s": dict, "counts": dict}


def validate_run(doc: Any) -> Dict[str, Any]:
    """Check one run document against its schema; returns it or raises."""
    if not isinstance(doc, dict) or doc.get("schema") != RUN_SCHEMA:
        raise ValueError(f"not a {RUN_SCHEMA} document")
    for field, kind in _RUN_FIELDS.items():
        if not isinstance(doc.get(field), kind):
            raise ValueError(f"run field {field!r} missing or not {kind}")
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        raise ValueError("attempted/failed out of range")
    for name, metric in doc["metrics"].items():
        if (set(metric) != {"value", "unit"} or isinstance(metric["value"], bool)
                or not isinstance(metric["value"], (int, float))):
            raise ValueError(f"metric {name!r} must be {{value: number, unit}}")
    extra = ("spans", "self_time_s") if doc["trace"] else ("setup_s",)
    for field in extra:
        if field not in doc:
            raise ValueError(f"run field {field!r} missing")
    return doc

#: --compare judges two runs of one seed, so virtual time must not move at
#: all; BENCHMARK.json's bound for it only absorbs seed-to-seed input jitter.
_BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}
_BOUNDS.update({"sim_time_s": 0.0, "fail_share": 0.0})
_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
_UNITS["fail_share"] = "ratio"


def load_runs(path: str) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != RESULTS_SCHEMA:
        raise ValueError(f"{path}: schema is {doc.get('schema')!r}, "
                         f"expected {RESULTS_SCHEMA!r}")
    return {(r["workload"], r["seed"], r["trace"]): validate_run(r)
            for r in doc["runs"]}


def merge_run(path: str, doc: Dict[str, Any]) -> None:
    """Add ``doc`` to a results file, replacing an earlier run of the same
    (workload, seed, trace)."""
    results = {"schema": RESULTS_SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            results = json.load(fh)
        if results.get("schema") != RESULTS_SCHEMA:
            raise ValueError(f"{path} is not a {RESULTS_SCHEMA} file")
    key = (doc["workload"], doc["seed"], doc["trace"])
    results["runs"] = [r for r in results["runs"]
                       if (r["workload"], r["seed"], r["trace"]) != key] + [doc]
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _readings(run: Dict[str, Any], metric: str) -> Tuple[float, float, float]:
    """(median, min, max) of one end-to-end metric in a run document."""
    if metric == "fail_share":
        share = run["failed"] / run["attempted"]
        return share, share, share
    value = run["metrics"][metric]["value"]
    if metric == "host_s":
        return value, run["host_s"]["min"], run["host_s"]["max"]
    if metric == "setup_s":
        return value, min(run["setup_s"]["samples"]), max(run["setup_s"]["samples"])
    return value, value, value


def verdict(a: Tuple[float, float, float], b: Tuple[float, float, float],
            bound: float) -> str:
    """improved / unchanged / regressed / unresolved (lower is better)."""
    (a_med, a_min, a_max), (b_med, b_min, b_max) = a, b
    if a_med == b_med:
        delta = 0.0
    elif a_med == 0:
        delta = float("inf")
    else:
        delta = (b_med - a_med) / a_med
    if delta > bound:
        return "regressed" if b_min > a_max or a_min == a_max else "unresolved"
    if delta < -bound or (bound == 0 and delta < 0):
        return "improved" if b_max < a_min or a_min == a_max else "unresolved"
    spread = max((hi - lo) / med if med else 0.0
                 for med, lo, hi in (a, b))
    return "unresolved" if spread > bound else "unchanged"


def compare_files(path_a: str, path_b: str, out: TextIO) -> int:
    """Print the comparison; return 1 if anything regressed, else 0."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    shared = sorted(k for k in runs_a if k in runs_b and k[2] == 0)
    if not shared:
        print("no untraced run of the same workload and seed in both files", file=out)
        return 1
    metrics = [name for name, *_ in END_TO_END] + ["fail_share"]
    regressed = 0
    print(f"base A = {path_a}\nnew  B = {path_b}\n"
          f"each cell: verdict, B as a multiple of A's value", file=out)
    for key in shared:
        a, b = runs_a[key], runs_b[key]
        cells = []
        for metric in metrics:
            ra, rb = _readings(a, metric), _readings(b, metric)
            v = verdict(ra, rb, _BOUNDS[metric])
            regressed += v == "regressed"
            ratio = f"{rb[0] / ra[0]:.3f}x of" if ra[0] else f"{rb[0]:g} against"
            cells.append(f"{metric} {v} {ratio} {ra[0]:.6g} {_UNITS[metric]}")
        moved = _count_changes(a, b)
        cells.append("counts identical" if not moved
                     else "counts changed: " + ", ".join(moved))
        print(f"{key[0]} (seed {key[1]}): " + " | ".join(cells), file=out)
    print(f"{regressed} regressed cell(s) over {len(shared)} workload(s)", file=out)
    return 1 if regressed else 0


def _count_changes(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    ca, cb = a.get("counts", {}), b.get("counts", {})
    return [f"{name} {ca.get(name)} -> {cb.get(name)}"
            for name in sorted(set(ca) | set(cb))
            # File sizes include the envelope's wall-clock stamps.
            if ca.get(name) != cb.get(name) and name != "serve.store_bytes"]
