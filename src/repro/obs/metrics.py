"""Labelled counters, gauges and virtual-time histograms.

A :class:`MetricsRegistry` is a plain host-side accumulator: updating it
never emits a trace record, never charges virtual time, and never touches
the scheduler — so instrumentation can stay enabled on the fast path
without perturbing byte-identity of traces. Disabling it (``obs="off"``)
turns every update into one boolean check.

Series are identified Prometheus-style: a metric name plus a sorted set of
``key=value`` labels, rendered as ``name{k=v,k2=v2}`` in
:meth:`MetricsRegistry.as_dict`. Everything is deterministic: the dict form
sorts series lexicographically, so two identical simulations serialize to
identical JSON.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["MetricsRegistry", "SIZE_CLASSES", "record_transfer", "size_class"]

#: Message size-class buckets (upper bounds in bytes, label).
SIZE_CLASSES: Tuple[Tuple[int, str], ...] = (
    (256, "<=256B"),
    (4 * 1024, "<=4KiB"),
    (64 * 1024, "<=64KiB"),
    (1024 * 1024, "<=1MiB"),
)

_OVERFLOW_CLASS = ">1MiB"


def size_class(nbytes: int) -> str:
    """Bucket a message size into the canonical size classes."""
    for bound, label in SIZE_CLASSES:
        if nbytes <= bound:
            return label
    return _OVERFLOW_CLASS


_SeriesKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _series_key(name: str, labels: Dict[str, Any]) -> _SeriesKey:
    return (name, tuple(sorted(labels.items())))


def _series_name(key: _SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


def _parse_series_name(text: str) -> _SeriesKey:
    """Inverse of :func:`_series_name` (label values come back as strings,
    which re-render to the identical series name)."""
    if not text.endswith("}") or "{" not in text:
        return (text, ())
    name, _, body = text[:-1].partition("{")
    labels = []
    for item in body.split(","):
        k, _, v = item.partition("=")
        labels.append((k, v))
    return (name, tuple(labels))


class _Histogram:
    """Decade-bucketed histogram with exact count/sum/min/max."""

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        label = _decade(value)
        self.buckets[label] = self.buckets.get(label, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": dict(sorted(self.buckets.items(), key=_bucket_sort_key)),
        }


def _decade(value: float) -> str:
    """Bucket label for ``value``: the smallest power of ten >= value."""
    if value <= 0:
        return "0"
    edge = 1e-9
    while edge < value and edge < 1e12:
        edge *= 10.0
    return f"{edge:g}"


def _bucket_sort_key(item: Tuple[str, int]) -> float:
    return float(item[0])


class MetricsRegistry:
    """Counters, gauges and histograms with per-series labels.

    Typical series (see docs/OBSERVABILITY.md for the full catalogue)::

        registry.inc("messages_total", backend="mpi", rank=0, size_class="<=4KiB")
        registry.inc("bytes_total", nbytes, backend="mpi", rank=0)
        registry.set_gauge("match_queue_depth", depth, rank=0, queue="unexpected")
        registry.observe("link_queue_delay_seconds", delay, link="nvlink")
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_gauge_max", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._gauge_max: Dict[_SeriesKey, float] = {}
        self._histograms: Dict[_SeriesKey, _Histogram] = {}

    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter series."""
        if not self.enabled:
            return
        key = _series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to its latest value, tracking the high-water mark."""
        if not self.enabled:
            return
        key = _series_key(name, labels)
        self._gauges[key] = value
        if value > self._gauge_max.get(key, float("-inf")):
            self._gauge_max[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation in a histogram series."""
        if not self.enabled:
            return
        key = _series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 if never incremented)."""
        return self._counters.get(_series_key(name, labels), 0)

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of every counter series of ``name`` whose labels include ``labels``."""
        want = set(labels.items())
        total = 0.0
        for (series, series_labels), value in self._counters.items():
            if series == name and want.issubset(series_labels):
                total += value
        return total

    def gauge(self, name: str, **labels: Any) -> float:
        return self._gauges.get(_series_key(name, labels), 0)

    def gauge_high_water(self, name: str, **labels: Any) -> float:
        return self._gauge_max.get(_series_key(name, labels), 0)

    def histogram(self, name: str, **labels: Any) -> Dict[str, Any]:
        hist = self._histograms.get(_series_key(name, labels))
        return hist.as_dict() if hist is not None else {}

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready snapshot (series sorted by name)."""
        return {
            "counters": {
                _series_name(k): v for k, v in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(k): {"last": v, "max": self._gauge_max[k]}
                for k, v in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(k): h.as_dict()
                for k, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output (the result-store
        round trip): ``from_dict(r.as_dict()).as_dict() == r.as_dict()``.

        Label values come back as strings — they re-render to the same
        series names, so snapshots and JSON stay identical; typed lookups
        (``counter(name, rank=0)``) on a rebuilt registry must pass labels
        as strings.
        """
        registry = cls(enabled=True)
        for series, value in d.get("counters", {}).items():
            registry._counters[_parse_series_name(series)] = value
        for series, gauge in d.get("gauges", {}).items():
            key = _parse_series_name(series)
            registry._gauges[key] = gauge["last"]
            registry._gauge_max[key] = gauge["max"]
        for series, payload in d.get("histograms", {}).items():
            hist = _Histogram()
            hist.count = payload["count"]
            hist.sum = payload["sum"]
            hist.min = payload["min"]
            hist.max = payload["max"]
            hist.buckets = dict(payload["buckets"])
            registry._histograms[_parse_series_name(series)] = hist
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


def record_transfer(metrics: MetricsRegistry, backend: str, requested: float, transfer) -> None:
    """Account one :class:`~repro.hardware.link.Transfer` reservation.

    ``requested`` is the virtual time the caller asked the path for; any gap
    to ``transfer.start`` is queueing delay behind earlier messages on a
    shared link. Busy-seconds accumulate the wire-occupancy term, giving
    link utilization when divided by the run's makespan.
    """
    if not metrics.enabled:
        return
    metrics.observe(
        "link_queue_delay_seconds", transfer.start - requested, backend=backend
    )
    metrics.inc(
        "link_busy_seconds_total", transfer.inject_done - transfer.start, backend=backend
    )
