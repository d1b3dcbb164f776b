"""Metrics registry: counters, gauges and histograms with labels.

The observability layer accounts for *where simulated work goes* —
operations executed, kernel launches, bytes transferred, core-pool
queue wait, LLC-pressure events — keyed by free-form labels, of which
``device`` and ``level`` are the conventional pair used throughout the
instrumentation (the quantities Figs. 7–10 of the paper are built
from).

All metric types share the same labelled-point storage: a point is
identified by the sorted tuple of its ``(key, value)`` label pairs, so
``counter.inc(3, device="gpu", level="4")`` and a later
``inc(device="gpu", level="4")`` accumulate into the same point.
Everything serializes to plain JSON via :meth:`MetricsRegistry.to_dict`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (simulated ops, decade-spaced).
DEFAULT_BUCKETS = (
    0.0,
    1e1,
    1e2,
    1e3,
    1e4,
    1e5,
    1e6,
    1e7,
    1e8,
    1e9,
)


#: Memo for :func:`_label_key`.  Instrumentation sites call with the
#: same few label sets hundreds of thousands of times per sweep, and
#: the sort + per-value ``str()`` dominated the metrics cost before the
#: cache.  Keys are the raw ``labels.items()`` tuples (hashable for the
#: str/int values instrumentation passes); unhashable values fall back
#: to the slow path.  Bounded so a pathological caller cannot grow it
#: without limit.
_LABEL_KEY_CACHE: Dict[tuple, LabelKey] = {}
_LABEL_KEY_CACHE_MAX = 4096


def _label_key(labels: Dict[str, object]) -> LabelKey:
    raw = tuple(labels.items())
    try:
        key = _LABEL_KEY_CACHE.get(raw)
    except TypeError:  # unhashable label value
        return tuple(sorted((k, str(v)) for k, v in labels.items()))
    if key is None:
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        if len(_LABEL_KEY_CACHE) < _LABEL_KEY_CACHE_MAX:
            _LABEL_KEY_CACHE[raw] = key
    return key


def label_key(**labels: object) -> LabelKey:
    """Public form of the point key: precompute once, then use
    :meth:`Counter.inc_at` / :meth:`Histogram.observe_at` on hot paths."""
    return _label_key(labels)


class _Metric:
    """Shared base: a named family of labelled points."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def to_dict(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    @staticmethod
    def _labels_dict(key: LabelKey) -> Dict[str, str]:
        return {k: v for k, v in key}


class Counter(_Metric):
    """A monotonically-increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._points: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` (must be >= 0) to the labelled point."""
        if value < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {value!r})"
            )
        key = _label_key(labels)
        self._points[key] = self._points.get(key, 0.0) + value

    def inc_at(self, key: LabelKey, value: float = 1.0) -> None:
        """Hot-path :meth:`inc` with a precomputed sorted label key.

        Callers on per-event paths (the schedule executor) build the
        key once per label set via :func:`label_key` and skip the
        kwargs/validation machinery on every subsequent increment.
        """
        points = self._points
        points[key] = points.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        """Current value of one labelled point (0.0 if never touched)."""
        return self._points.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labelled point."""
        return sum(self._points.values())

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "points": [
                {"labels": self._labels_dict(key), "value": value}
                for key, value in sorted(self._points.items())
            ],
        }


class Gauge(_Metric):
    """A last-write-wins value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._points: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._points[_label_key(labels)] = float(value)

    def add(self, value: float, **labels: object) -> None:
        """Adjust the gauge by ``value`` (may be negative)."""
        key = _label_key(labels)
        self._points[key] = self._points.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self._points.get(_label_key(labels), 0.0)

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "points": [
                {"labels": self._labels_dict(key), "value": value}
                for key, value in sorted(self._points.items())
            ],
        }


class _HistogramPoint:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +inf overflow


def histogram_quantile(
    buckets: Sequence[float], point: Optional[_HistogramPoint], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile of one histogram point.

    Linear interpolation within the bucket holding the target rank
    (values are assumed uniform inside a bucket — the same estimator
    Prometheus' ``histogram_quantile`` uses), sharpened by the exact
    recorded ``min``/``max``: the first populated bucket interpolates
    up from ``min`` instead of the bucket's nominal lower bound, and a
    rank landing in the +Inf overflow slot returns the observed ``max``
    rather than infinity.  Returns ``None`` for an empty point.
    """
    if point is None or point.count == 0:
        return None
    if q <= 0.0:
        return point.min
    if q >= 1.0:
        return point.max
    target = q * point.count
    cumulative = 0
    for i, n in enumerate(point.bucket_counts):
        if n == 0:
            continue
        if cumulative + n < target:
            cumulative += n
            continue
        if i >= len(buckets):
            # Overflow slot: everything here exceeds the last bound,
            # and the only finite statement we can make is the max.
            return point.max
        upper = min(buckets[i], point.max)
        lower = buckets[i - 1] if i > 0 else point.min
        lower = max(min(lower, upper), point.min)
        fraction = (target - cumulative) / n
        return lower + (upper - lower) * fraction
    return point.max  # pragma: no cover - count implies a populated slot


class Histogram(_Metric):
    """Count/sum/min/max plus cumulative bucket counts per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted: {buckets!r}")
        self.buckets = tuple(buckets)
        self._points: Dict[LabelKey, _HistogramPoint] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        point = self._points.get(key)
        if point is None:
            self._points[key] = point = _HistogramPoint(len(self.buckets))
        point.count += 1
        point.sum += value
        if value < point.min:
            point.min = value
        if value > point.max:
            point.max = value
        # bisect_left on sorted bounds == first bucket with value <= bound;
        # len(buckets) (the overflow slot) when value exceeds every bound.
        point.bucket_counts[bisect_left(self.buckets, value)] += 1

    def observe_many_at(self, key: LabelKey, value: float, n: int) -> None:
        """Record ``n`` identical observations at once.

        Histograms are commutative aggregates, so a deferred batch
        flush (e.g. the executor's zero-wait core acquisitions) yields
        the same point state as ``n`` interleaved ``observe`` calls.
        """
        if n <= 0:
            return
        point = self._points.get(key)
        if point is None:
            self._points[key] = point = _HistogramPoint(len(self.buckets))
        point.count += n
        point.sum += value * n
        if value < point.min:
            point.min = value
        if value > point.max:
            point.max = value
        point.bucket_counts[bisect_left(self.buckets, value)] += n

    def observe_at(self, key: LabelKey, value: float) -> None:
        """Hot-path :meth:`observe` with a precomputed label key."""
        point = self._points.get(key)
        if point is None:
            self._points[key] = point = _HistogramPoint(len(self.buckets))
        point.count += 1
        point.sum += value
        if value < point.min:
            point.min = value
        if value > point.max:
            point.max = value
        point.bucket_counts[bisect_left(self.buckets, value)] += 1

    def point(self, **labels: object) -> Optional[_HistogramPoint]:
        """The raw accumulator for one labelled point, if it exists."""
        return self._points.get(_label_key(labels))

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """Estimated ``q``-quantile of one labelled point (or ``None``).

        See :func:`histogram_quantile` for the estimator; the SLA block
        (:func:`repro.obs.live.sla_block`) and ``repro-serve top`` are
        the primary consumers.
        """
        return histogram_quantile(
            self.buckets, self._points.get(_label_key(labels)), q
        )

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "points": [
                {
                    "labels": self._labels_dict(key),
                    "count": p.count,
                    "sum": p.sum,
                    "min": p.min if p.count else None,
                    "max": p.max if p.count else None,
                    "bucket_counts": list(p.bucket_counts),
                }
                for key, p in sorted(self._points.items())
            ],
        }


class MetricsRegistry:
    """A named collection of metrics, created lazily on first use.

    ``registry.counter("gpu.kernel_launches").inc(device="gpu")`` —
    repeat calls with the same name return the same instance; asking for
    an existing name with a different metric type is an error.

    Snapshots and merges are mutually serialized: :meth:`to_dict`,
    :meth:`summary` and :meth:`merge_dict` share one lock, so a sampler
    thread snapshotting the registry while another thread folds a
    worker snapshot in can never observe a torn histogram (count
    disagreeing with its bucket counts).  Hot-path recording
    (``inc``/``observe``) deliberately stays lock-free.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            self._metrics[name] = metric = cls(name, help, **kwargs)
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self._get(Histogram, name, help, buckets=buckets)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every metric."""
        with self._lock:
            return {
                name: metric.to_dict()
                for name, metric in sorted(self._metrics.items())
            }

    def merge_dict(self, snapshot: dict) -> None:
        """Merge a :meth:`to_dict` snapshot into this registry.

        Used by :meth:`repro.obs.tracer.Tracer.absorb` to fold another
        process's registry into this one: counters and gauges add
        point-wise, histograms merge count/sum/min/max and bucket
        counts.  Metric
        families are created here on demand, so merging into an empty
        registry reproduces the snapshot exactly.
        """
        with self._lock:
            self._merge_dict_locked(snapshot)

    def _merge_dict_locked(self, snapshot: dict) -> None:
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                metric = self.counter(name, data.get("help", ""))
                for point in data["points"]:
                    metric.inc(point["value"], **point["labels"])
            elif kind == "gauge":
                metric = self.gauge(name, data.get("help", ""))
                for point in data["points"]:
                    metric.add(point["value"], **point["labels"])
            elif kind == "histogram":
                metric = self.histogram(
                    name, data.get("help", ""),
                    buckets=tuple(data["buckets"]),
                )
                for point in data["points"]:
                    key = _label_key(point["labels"])
                    acc = metric._points.get(key)
                    if acc is None:
                        metric._points[key] = acc = _HistogramPoint(
                            len(metric.buckets)
                        )
                    acc.count += point["count"]
                    acc.sum += point["sum"]
                    if point["min"] is not None and point["min"] < acc.min:
                        acc.min = point["min"]
                    if point["max"] is not None and point["max"] > acc.max:
                        acc.max = point["max"]
                    for i, n in enumerate(point["bucket_counts"]):
                        acc.bucket_counts[i] += n
            else:  # pragma: no cover - future metric kinds
                raise ValueError(f"cannot merge metric {name!r} of {kind!r}")

    def summary(self) -> dict:
        """Compact totals for manifests: one number per metric family.

        Counters report their total over all label sets; gauges the sum
        of current values; histograms ``{count, sum}``.
        """
        out: Dict[str, object] = {}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if isinstance(metric, Counter):
                out[name] = metric.total()
            elif isinstance(metric, Gauge):
                out[name] = sum(metric._points.values())
            elif isinstance(metric, Histogram):
                out[name] = {
                    "count": sum(p.count for p in metric._points.values()),
                    "sum": sum(p.sum for p in metric._points.values()),
                }
        return out
