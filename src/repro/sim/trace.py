"""Lightweight event tracing for debugging and for tests that assert on
communication schedules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .engine import Engine

__all__ = ["TraceRecord", "Tracer"]


class TraceRecord:
    """One record: its kind, virtual time and fields (in emission order)."""

    __slots__ = ("kind", "t", "fields")

    def __init__(self, kind: str, t: float, fields: Dict[str, Any]):
        self.kind = kind
        self.t = t
        self.fields = fields

    def __eq__(self, other: object) -> bool:
        if type(other) is not TraceRecord:
            return NotImplemented
        return (self.kind, self.t, self.fields) == (other.kind, other.t, other.fields)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TraceRecord(kind={self.kind!r}, t={self.t!r}, fields={self.fields!r})"


@dataclass
class Tracer:
    """Collects ``engine.trace(...)`` records; attach with ``install``."""

    records: List[TraceRecord] = field(default_factory=list)

    def install(self, engine: Engine) -> "Tracer":
        """Attach this tracer to an engine's trace hook."""
        engine.trace_hook = self.add
        return self

    def add(self, kind: str, t: float, fields: Dict[str, Any]) -> None:
        """The engine's hook: keeps ``fields`` itself as the record's."""
        self.records.append(TraceRecord(kind, t, fields))

    def __call__(self, kind: str, t: float = 0.0, **fields: Any) -> None:
        self.records.append(TraceRecord(kind, t, fields))

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All collected records of one event kind."""
        return [r for r in self.records if r.kind == kind]
