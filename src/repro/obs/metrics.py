"""Labelled counters, gauges and virtual-time histograms.

A :class:`MetricsRegistry` is a plain host-side accumulator: updating it
never emits a trace record, never charges virtual time, and never touches
the scheduler — so instrumentation can stay enabled by default
without perturbing byte-identity of traces. Disabling it (``obs="off"``,
decided before anything is bound: ``launch()`` does it right after creating
the engine) turns every keyword update into one boolean check and every
bound handle into a shared no-op.

Series are identified Prometheus-style: a metric name plus a sorted set of
``key=value`` labels, rendered as ``name{k=v,k2=v2}`` in
:meth:`MetricsRegistry.as_dict`. Everything is deterministic: the dict form
sorts series lexicographically, so two identical simulations serialize to
identical JSON.

A call site that updates the same series over and over binds it once
(:meth:`MetricsRegistry.bind_counter` / ``bind_gauge`` / ``bind_histogram``)
and keeps the returned handle: the handle *is* the series' storage, so an
update through it does no label work at all. ``inc`` / ``set_gauge`` /
``observe`` with keyword labels are the convenience spelling over the same
storage, for cold sites and tests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Tuple

__all__ = ["MetricsRegistry", "SIZE_CLASSES", "SeriesBy", "size_class"]

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


class _Counter:
    """One counter series (the handle ``bind_counter`` returns).

    Series hold no reference back to their registry: a registry stays
    acyclic, so a finished run's metrics are freed with its report.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None  # None: bound but never updated (not dumped)

    def inc(self, value: float = 1) -> None:
        """Add ``value`` to the series."""
        current = self.value
        self.value = (0 if current is None else current) + value


class _Gauge:
    """One gauge series: latest value and high-water mark."""

    __slots__ = ("last", "max")

    def __init__(self) -> None:
        self.last = None  # None: bound but never set (not dumped)
        self.max = float("-inf")

    def set(self, value: float) -> None:
        """Set the series to its latest value."""
        self.last = value
        if value > self.max:
            self.max = value


def _decade_edges() -> Tuple[List[float], List[str]]:
    """Bucket edges 1e-9 .. 1e12 by repeated multiplication (rounding
    included: the labels are what the dump has always shown) and the label
    of each; one more label than edges — the last bucket is open."""
    edges = [1e-9]
    while edges[-1] < 1e12:
        edges.append(edges[-1] * 10.0)
    return edges[:-1], [f"{edge:g}" for edge in edges]


_DECADE_EDGES, _DECADE_LABELS = _decade_edges()


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
        """Record one observation; its bucket is the smallest power of ten
        >= value ("0" for value <= 0)."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        label = ("0" if value <= 0
                 else _DECADE_LABELS[bisect_left(_DECADE_EDGES, value)])
        self.buckets[label] = self.buckets.get(label, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": dict(sorted(self.buckets.items(), key=_bucket_sort_key)),
        }


def _bucket_sort_key(item: Tuple[str, int]) -> float:
    return float(item[0])


class _Inert:
    """What a disabled registry binds for every series: updates vanish."""

    __slots__ = ()

    def inc(self, value: float = 1) -> None:
        pass

    set = observe = inc


_INERT = _Inert()


class MetricsRegistry:
    """Counters, gauges and histograms with per-series labels.

    Typical series (see docs/OBSERVABILITY.md for the full catalogue)::

        registry.inc("messages_total", backend="mpi", rank=0, size_class="<=4KiB")
        registry.inc("bytes_total", nbytes, backend="mpi", rank=0)
        registry.set_gauge("match_queue_depth", depth, rank=0, queue="unexpected")
        registry.observe("link_queue_delay_seconds", delay, link="nvlink")

    A hot site binds its series once and updates the handle::

        posts = registry.bind_counter("uniconn_calls_total", op="post", rank=0)
        posts.inc()

    Both spellings reach the same series; one that was bound but never
    updated does not appear in :meth:`as_dict`. ``enabled`` is read when a
    series is bound (and by every keyword update), so it is set before the
    registry is used, not flipped in mid-run.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[_SeriesKey, _Counter] = {}
        self._gauges: Dict[_SeriesKey, _Gauge] = {}
        self._histograms: Dict[_SeriesKey, _Histogram] = {}

    # ------------------------------------------------------------------ #

    def _bind(self, table: Dict[_SeriesKey, Any], kind, name: str,
              labels: Dict[str, Any]):
        if not self.enabled:
            return _INERT
        key = _series_key(name, labels)
        series = table.get(key)
        if series is None:
            series = table[key] = kind()
        return series

    def bind_counter(self, name: str, **labels: Any) -> _Counter:
        """The counter series ``name{labels}``, as a handle with ``inc``."""
        return self._bind(self._counters, _Counter, name, labels)

    def bind_gauge(self, name: str, **labels: Any) -> _Gauge:
        """The gauge series ``name{labels}``, as a handle with ``set``."""
        return self._bind(self._gauges, _Gauge, name, labels)

    def bind_histogram(self, name: str, **labels: Any) -> _Histogram:
        """The histogram series ``name{labels}``, as a handle with ``observe``."""
        return self._bind(self._histograms, _Histogram, name, labels)

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter series."""
        self._bind(self._counters, _Counter, name, labels).inc(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to its latest value, tracking the high-water mark."""
        self._bind(self._gauges, _Gauge, name, labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation in a histogram series."""
        self._bind(self._histograms, _Histogram, name, labels).observe(value)

    # ------------------------------------------------------------------ #

    def counter_values(self) -> Dict[_SeriesKey, float]:
        """Value of every updated counter series, by key."""
        return {k: c.value for k, c in self._counters.items() if c.value is not None}

    def counter(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 if never incremented)."""
        series = self._counters.get(_series_key(name, labels))
        return 0 if series is None or series.value is None else series.value

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of every counter series of ``name`` whose labels include ``labels``."""
        want = set(labels.items())
        total = 0.0
        for (series, series_labels), value in self.counter_values().items():
            if series == name and want.issubset(series_labels):
                total += value
        return total

    def gauge(self, name: str, **labels: Any) -> float:
        series = self._gauges.get(_series_key(name, labels))
        return 0 if series is None or series.last is None else series.last

    def gauge_high_water(self, name: str, **labels: Any) -> float:
        series = self._gauges.get(_series_key(name, labels))
        return 0 if series is None or series.last is None else series.max

    def histogram(self, name: str, **labels: Any) -> Dict[str, Any]:
        hist = self._histograms.get(_series_key(name, labels))
        return hist.as_dict() if hist is not None and hist.count else {}

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------ #

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready snapshot (series sorted by name)."""
        return {
            "counters": {
                _series_name(k): v for k, v in sorted(self.counter_values().items())
            },
            "gauges": {
                _series_name(k): {"last": g.last, "max": g.max}
                for k, g in sorted(self._gauges.items()) if g.last is not None
            },
            "histograms": {
                _series_name(k): h.as_dict()
                for k, h in sorted(self._histograms.items()) if h.count
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
            counter = registry._counters[_parse_series_name(series)] = _Counter()
            counter.value = value
        for series, payload in d.get("gauges", {}).items():
            gauge = registry._gauges[_parse_series_name(series)] = _Gauge()
            gauge.last = payload["last"]
            gauge.max = payload["max"]
        for series, payload in d.get("histograms", {}).items():
            hist = registry._histograms[_parse_series_name(series)] = _Histogram()
            hist.count = payload["count"]
            hist.sum = payload["sum"]
            hist.min = payload["min"]
            hist.max = payload["max"]
            hist.buckets = dict(payload["buckets"])
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


class SeriesBy(dict):
    """A family of series of one metric, for a site whose label *values*
    vary from call to call (an op, a size class, a peer rank).

    ``bind`` is a registry's ``bind_counter`` / ``bind_gauge`` /
    ``bind_histogram``; ``family[values]`` is the series whose ``varying``
    labels take ``values`` (one value, or a tuple in the order the labels
    were named; ``fixed`` labels ride along), bound the first time those
    values are seen — a plain dict lookup ever after::

        puts = SeriesBy(metrics.bind_counter, "shmem_puts_total", "size", "rank")
        puts[size_class(nbytes), pe].inc()
    """

    __slots__ = ("_bind", "_name", "_varying", "_fixed")

    def __init__(self, bind, name: str, *varying: str, **fixed: Any) -> None:
        self._bind, self._name, self._varying, self._fixed = bind, name, varying, fixed

    def __missing__(self, values: Any):
        varying = self._varying
        labels = zip(varying, values if len(varying) > 1 else (values,))
        series = self[values] = self._bind(self._name, **dict(labels), **self._fixed)
        return series
