"""Named counters, gauges and histograms for the checkpoint runtime.

A :class:`MetricsRegistry` is a flat namespace of metrics shared by every
engine of one simulation (the cluster owns it).  Instruments are
get-or-create — ``registry.counter("cache.p0-gpu.evictions")`` returns the
same :class:`Counter` every time — so call sites can resolve their handles
once at construction and update them lock-free on the hot path (handle
updates take one short per-instrument lock; creation takes the registry
lock).

Conventions (see README "Observability" for the full catalogue):

* dotted lowercase names, most-general prefix first
  (``cache.<name>.evictions``, ``flush.d2h.bytes``, ``tier.ssd.read_bytes``);
* byte quantities are *nominal* bytes, durations nominal seconds;
* per-process instruments embed the component name (``p0-gpu``), shared
  ones do not.

``snapshot()`` renders everything to plain JSON-serialisable dicts;
``merge()`` folds another snapshot in (multi-process aggregation).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

#: Default histogram bucket boundaries (nominal seconds): exponential from
#: 100 µs to ~100 s, the range of one transfer to one full flush drain.
DEFAULT_BUCKETS = tuple(1e-4 * (4.0**i) for i in range(10))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value

    def merge(self, other: float) -> None:
        with self._lock:
            self._value += other


class Gauge:
    """A point-in-time value (occupancy, queue depth, fragmentation)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value

    def merge(self, other: float) -> None:
        # Gauges are point-in-time; on merge keep the max (occupancies and
        # depths aggregate meaningfully as a high-water mark).
        with self._lock:
            self._value = max(self._value, other)


class Histogram:
    """A distribution: count/sum/min/max plus exponential bucket counts."""

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted: {bounds}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last bucket = +inf
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = 0
        for bound in self.buckets:
            if value <= bound:
                break
            idx += 1
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "mean": self._sum / self._count if self._count else 0.0,
                "buckets": list(zip(self.buckets, self._counts[:-1]))
                + [(float("inf"), self._counts[-1])],
            }

    def merge(self, other: dict) -> None:
        counts = [c for _, c in other.get("buckets", [])]
        with self._lock:
            if len(counts) == len(self._counts):
                for i, c in enumerate(counts):
                    self._counts[i] += c
            self._count += other.get("count", 0)
            self._sum += other.get("sum", 0.0)
            if other.get("count"):
                self._min = min(self._min, other.get("min", self._min))
                self._max = max(self._max, other.get("max", self._max))


class Reading:
    """A value its owner keeps (under its own lock) and the registry reads
    when rendered — the clock's tallies, which a counter updated from under
    the clock's leaf lock could not be."""

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[], float]) -> None:
        self.name = name
        self._read = read

    @property
    def value(self) -> float:
        return self._read()

    def snapshot(self) -> float:
        return self._read()

    def merge(self, other: float) -> None:
        raise TypeError(f"metric {self.name!r} is read from its owner; it cannot be merged")


class MetricsRegistry:
    """Flat, thread-safe namespace of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        if buckets is None:
            return self._get_or_create(name, Histogram)
        return self._get_or_create(name, Histogram, buckets)

    def reading(self, name: str, read: Callable[[], float]) -> Reading:
        return self._get_or_create(name, Reading, read)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, object]:
        """All metrics rendered to plain values, sorted by name."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram moments add; gauges keep the max.  Unknown
        names are materialised (counters for scalars, histograms for dicts),
        so merging into an empty registry reconstructs the aggregate.
        """
        for name, value in snapshot.items():
            if isinstance(value, dict):
                bounds = [b for b, _ in value.get("buckets", [])][:-1]
                self.histogram(name, bounds or None).merge(value)
            else:
                metric = self.get(name)
                if metric is None:
                    metric = self.counter(name)
                metric.merge(value)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
