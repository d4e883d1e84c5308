"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``{name, start, end, id, parent, workload, pass, job}``; times are
``time.perf_counter()`` seconds. Spans of one pass share the ``pass`` field
and hang under one root named after the workload, so a layer's *self time* is
its span minus the part of it that its children cover. Nothing here touches
the program: the recorder wraps calls from outside.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "self_times", "check_tree"]


class SpanRecorder:
    """Collects nested spans; ``None`` stands in for it when tracing is off."""

    def __init__(self, workload: str, pass_id: int = 0) -> None:
        self.workload = workload
        self.pass_id = pass_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        rec = self.add(name, time.perf_counter(), None, job=job,
                       parent=self._stack[-1] if self._stack else None)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: Optional[float], *,
            job: Optional[str] = None, parent: Optional[int] = None) -> Dict[str, Any]:
        """Record a span whose times were observed elsewhere (serve events)."""
        rec = {"name": name, "start": start, "end": end, "id": len(self.spans),
               "parent": parent, "workload": self.workload,
               "pass": self.pass_id, "job": job}
        self.spans.append(rec)
        return rec


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds of self time per span name (span minus covered children)."""
    covered: Dict[int, float] = {}
    for parent, kids in _children(spans).items():
        # Children may overlap (queue wait vs run of neighbouring serve
        # jobs), so measure the union of their intervals, not the sum.
        total, reach = 0.0, float("-inf")
        for kid in sorted(kids, key=lambda s: s["start"]):
            lo, hi = max(kid["start"], reach), kid["end"]
            if hi > lo:
                total += hi - lo
                reach = hi
        covered[parent] = total
    out: Dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def _children(spans: List[Dict[str, Any]]) -> Dict[int, List[Dict[str, Any]]]:
    kids: Dict[int, List[Dict[str, Any]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def check_tree(spans: List[Dict[str, Any]], workload: str) -> List[str]:
    """Well-formedness problems of one pass's span tree (empty = fine)."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != workload:
        problems.append(f"expected one root named {workload!r}, got "
                        f"{[r['name'] for r in roots]}")
    slack = 1e-6  # perf_counter reads on both sides of a boundary
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']}#{s['id']} has no valid end")
            continue
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and parent is None:
            problems.append(f"span {s['name']}#{s['id']} has unknown parent")
        elif parent is not None and (s["start"] < parent["start"] - slack
                                     or s["end"] > parent["end"] + slack):
            problems.append(f"span {s['name']}#{s['id']} leaves its parent "
                            f"{parent['name']}#{parent['id']}")
    for name, own in self_times([s for s in spans if s["end"] is not None]).items():
        if own < -slack:
            problems.append(f"self time of {name} is negative ({own:.6f}s)")
    return problems
