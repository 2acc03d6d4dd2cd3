"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` aggregates what the tracer cannot afford to
record per event: probe packets sent, RTT retries, oracle calls,
scheduler batches.  Metrics are identified by a name plus optional
labels (``registry.counter("probe.packets_sent", switch="s1")``);
repeated lookups return the same object, so hot paths cache the handle
once and pay a single method call per update.

Components reach a registry through :class:`repro.obs.Instruments`,
which hands out shared no-op handles when no registry is attached::

    registry = MetricsRegistry()
    run_something(instruments=Instruments(metrics=registry))
    assert registry.counter("scheduler.batches").value == 3

Snapshots are plain sorted dicts, so they serialise deterministically
into the bench records' op attribution and the Prometheus text dump.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (milliseconds of simulated time).
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    5000.0,
)


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. installed probe flows)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed upper-bound buckets plus sum/count (Prometheus-style).

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    is the overflow (``+Inf``) bucket.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be non-empty, sorted, and unique")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Creates and stores metrics keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # -- handle lookup (create on first use) -----------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labelset(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labelset(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """Find or create a histogram; ``buckets`` override the default.

        The override binds at creation (first lookup).  A later lookup
        may omit ``buckets`` (the existing histogram is returned), but
        re-specifying *different* bounds raises: the old behaviour --
        silently ignoring the override and observing ratio-valued data
        into millisecond buckets -- corrupted every non-latency series.
        The default is :data:`DEFAULT_BUCKETS_MS` (latencies).
        """
        key = (name, _labelset(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                name, key[1], buckets if buckets is not None else DEFAULT_BUCKETS_MS
            )
        elif buckets is not None and tuple(float(b) for b in buckets) != metric.buckets:
            raise ValueError(
                f"histogram {name!r} already exists with buckets "
                f"{metric.buckets}; cannot rebind to {tuple(buckets)}"
            )
        return metric

    # -- introspection ---------------------------------------------------------
    def counters(self) -> List[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    @staticmethod
    def _key(name: str, labels: LabelSet) -> str:
        if not labels:
            return name
        rendered = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{rendered}}}"

    def snapshot(self) -> Dict[str, Any]:
        """All metric values as one flat, sorted, JSON-ready dict."""
        out: Dict[str, Any] = {}
        for counter in self.counters():
            out[self._key(counter.name, counter.labels)] = counter.value
        for gauge in self.gauges():
            out[self._key(gauge.name, gauge.labels)] = gauge.value
        for histogram in self.histograms():
            out[self._key(histogram.name, histogram.labels)] = {
                "count": histogram.count,
                "sum": histogram.sum,
                "buckets": {
                    str(bound): histogram.counts[i]
                    for i, bound in enumerate(histogram.buckets)
                },
                "overflow": histogram.counts[-1],
            }
        return out

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


#: Shared no-op handles, handed out when no registry is attached.
_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")
