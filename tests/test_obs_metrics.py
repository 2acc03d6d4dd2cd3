"""Tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS_MS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    scoped,
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


def test_bucket_presets_are_sorted_unique_and_fit_their_domain():
    for preset in (RATIO_BUCKETS, COUNT_BUCKETS):
        assert list(preset) == sorted(set(preset))
    # Ratio buckets cover the 0-1 occupancy domain and end at exactly 1.
    assert RATIO_BUCKETS[-1] == 1.0
    assert all(0.0 < edge <= 1.0 for edge in RATIO_BUCKETS)
    assert COUNT_BUCKETS[0] == 1.0


def test_histogram_bucket_presets_are_usable_overrides():
    registry = MetricsRegistry()
    ratio = registry.histogram("switch.occupancy_ratio", buckets=RATIO_BUCKETS)
    ratio.observe(0.3)
    ratio.observe(0.97)
    assert ratio.buckets == tuple(RATIO_BUCKETS)
    assert ratio.count == 2
    counts = registry.histogram("scheduler.batch_size", buckets=COUNT_BUCKETS)
    counts.observe(7)
    assert counts.buckets == tuple(COUNT_BUCKETS)


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


def test_scoped_swaps_and_restores_default_registry():
    before = default_registry()
    with scoped() as fresh:
        assert default_registry() is fresh
        assert fresh is not before
        fresh.counter("inside").inc()
    assert default_registry() is before
    assert "inside" not in before.snapshot()


def test_scoped_accepts_explicit_registry():
    mine = MetricsRegistry()
    with scoped(mine) as active:
        assert active is mine
        assert default_registry() is mine


def test_scoped_restores_on_exception():
    before = default_registry()
    with pytest.raises(RuntimeError):
        with scoped():
            raise RuntimeError("boom")
    assert default_registry() is before
