"""Tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs import NULL_INSTRUMENTS


def test_counter_increments_and_rejects_negative():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(3)
    assert gauge.value == 4.0


def test_histogram_buckets_and_overflow():
    histogram = Histogram("h", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe(1.0)  # boundary lands in its own bucket (<=)
    histogram.observe(5.0)
    histogram.observe(99.0)  # overflow
    assert histogram.counts == [2, 1, 1]
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(105.5)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))


def test_registry_returns_same_handle_for_same_key():
    registry = MetricsRegistry()
    assert registry.counter("c", a="1") is registry.counter("c", a="1")
    assert registry.counter("c", a="1") is not registry.counter("c", a="2")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_registry_label_order_is_irrelevant():
    registry = MetricsRegistry()
    assert registry.counter("c", a="1", b="2") is registry.counter("c", b="2", a="1")


def test_registry_len_and_clear():
    registry = MetricsRegistry()
    registry.counter("c")
    registry.gauge("g")
    registry.histogram("h")
    assert len(registry) == 3
    registry.clear()
    assert len(registry) == 0


def test_snapshot_is_flat_sorted_and_json_ready():
    import json

    registry = MetricsRegistry()
    registry.counter("z.counter").inc(2)
    registry.counter("a.counter", switch="s1").inc()
    registry.gauge("a.gauge").set(7)
    registry.histogram("a.hist", buckets=(1.0,)).observe(0.5)
    snapshot = registry.snapshot()
    assert snapshot["z.counter"] == 2.0
    assert snapshot["a.counter{switch=s1}"] == 1.0
    assert snapshot["a.gauge"] == 7.0
    assert snapshot["a.hist"] == {
        "count": 1,
        "sum": 0.5,
        "buckets": {"1.0": 1},
        "overflow": 0,
    }
    json.dumps(snapshot)  # must serialise


def test_introspection_lists_are_sorted():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert [c.name for c in registry.counters()] == ["a", "b"]


def test_default_histogram_buckets_are_sorted_unique():
    assert list(DEFAULT_BUCKETS_MS) == sorted(set(DEFAULT_BUCKETS_MS))


def test_histogram_rejects_conflicting_bucket_override():
    registry = MetricsRegistry()
    registry.histogram("h", buckets=(1.0, 10.0))
    # Same buckets re-stated: fine, same handle.
    assert registry.histogram("h", buckets=(1.0, 10.0)) is registry.histogram("h")
    with pytest.raises(ValueError):
        registry.histogram("h", buckets=(2.0, 20.0))


def test_null_registry_is_disabled_and_ignores_updates():
    # No registry attached: metric lookups hand out shared no-op handles.
    assert NULL_INSTRUMENTS.enabled is False
    assert NULL_INSTRUMENTS.metrics is None
    counter = NULL_INSTRUMENTS.counter("c", any="label")
    counter.inc(100)
    assert counter.value == 0.0
    gauge = NULL_INSTRUMENTS.gauge("g")
    gauge.set(5)
    gauge.inc()
    gauge.dec()
    assert gauge.value == 0.0
    histogram = NULL_INSTRUMENTS.histogram("h")
    histogram.observe(1.0)
    assert histogram.count == 0
    # Shared handles: no allocation per lookup.
    assert NULL_INSTRUMENTS.counter("x") is NULL_INSTRUMENTS.counter("y")
