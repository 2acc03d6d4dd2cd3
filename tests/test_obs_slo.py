"""Tests for SLO burn-rate alerting."""

import io

import pytest

from repro.obs.export import jsonl_lines, write_jsonl
from repro.obs.slo import (
    BurnWindow,
    DEFAULT_BURN_WINDOWS,
    SloPolicy,
    SloTarget,
    TelemetryAlert,
    default_slo_targets,
    read_alerts_jsonl,
)
from repro.obs.telemetry import TelemetryCollector, TelemetrySample


def _sample(t_ms, value, series="executor.install_ms", source="s1"):
    return TelemetrySample(t_ms=t_ms, series=series, source=source, value=value)


def _policy(threshold=10.0, budget=0.05, **kwargs):
    target = SloTarget(
        name="latency", series="executor.install_ms", threshold=threshold, budget=budget
    )
    return SloPolicy([target], **kwargs)


# -- validation -----------------------------------------------------------------------
def test_slo_target_validation():
    with pytest.raises(ValueError):
        SloTarget(name="x", series="s", threshold=1.0, budget=0.0)
    with pytest.raises(ValueError):
        SloTarget(name="x", series="s", threshold=1.0, budget=1.5)
    with pytest.raises(ValueError):
        SloTarget(name="x", series="s", threshold=1.0, aggregate="p75")


def test_burn_window_validation():
    with pytest.raises(ValueError):
        BurnWindow(short_ms=0.0, long_ms=10.0, burn_threshold=1.0)
    with pytest.raises(ValueError):
        BurnWindow(short_ms=20.0, long_ms=10.0, burn_threshold=1.0)
    with pytest.raises(ValueError):
        BurnWindow(short_ms=5.0, long_ms=10.0, burn_threshold=0.0)


def test_policy_rejects_empty_and_duplicate_targets():
    with pytest.raises(ValueError):
        SloPolicy([])
    target = SloTarget(name="x", series="s", threshold=1.0)
    with pytest.raises(ValueError):
        SloPolicy([target, target])


def test_default_burn_windows_ladder():
    page, ticket = DEFAULT_BURN_WINDOWS
    assert page.severity == "page" and ticket.severity == "ticket"
    assert page.burn_threshold > ticket.burn_threshold
    assert page.long_ms < ticket.long_ms


def test_default_slo_targets_cover_the_stock_series():
    targets = default_slo_targets()
    series = {t.series for t in targets}
    assert series == {
        "executor.install_ms",
        "scheduler.fault_deferrals",
        "switch.occupancy_ratio",
    }


# -- burn-rate mechanics ---------------------------------------------------------------
def test_sustained_burn_fires_once_per_episode():
    policy = _policy(threshold=10.0, budget=0.05, min_samples=3)
    # Every observation violates: burn = 1.0 / 0.05 = 20x on all windows.
    for t in range(0, 100, 5):
        policy.ingest(_sample(float(t), 50.0))
    first = policy.evaluate(100.0)
    assert [a.severity for a in first] == ["page", "ticket"]
    # Still burning at the next tick: the latch suppresses a re-page.
    policy.ingest(_sample(105.0, 50.0))
    assert policy.evaluate(110.0) == []


def test_burn_needs_both_windows():
    # A short burst that already ended: the long window still shows the
    # burn but the short window has recovered, so nothing fires.
    policy = _policy(
        threshold=10.0,
        budget=0.5,
        windows=[BurnWindow(short_ms=20.0, long_ms=200.0, burn_threshold=1.5)],
        min_samples=2,
    )
    for t in range(0, 60, 5):
        policy.ingest(_sample(float(t), 50.0))  # violations
    for t in range(60, 110, 5):
        policy.ingest(_sample(float(t), 1.0))  # recovered
    assert policy.evaluate(110.0) == []


def test_hysteresis_rearms_after_recovery():
    policy = _policy(
        threshold=10.0,
        budget=0.5,
        windows=[BurnWindow(short_ms=30.0, long_ms=60.0, burn_threshold=1.0)],
        min_samples=2,
    )
    for t in range(0, 60, 5):
        policy.ingest(_sample(float(t), 50.0))
    assert len(policy.evaluate(60.0)) == 1
    # Recovery: short window fills with healthy samples, latch re-arms.
    for t in range(60, 130, 5):
        policy.ingest(_sample(float(t), 1.0))
    assert policy.evaluate(130.0) == []
    # Second episode fires again.
    for t in range(130, 200, 5):
        policy.ingest(_sample(float(t), 50.0))
    assert len(policy.evaluate(200.0)) == 1
    assert len(policy.alerts) == 2


def test_min_samples_suppresses_cold_start():
    policy = _policy(threshold=10.0, budget=0.05, min_samples=5)
    for t in range(3):
        policy.ingest(_sample(float(t), 50.0))
    assert policy.evaluate(5.0) == []


def test_per_source_target_isolates_switches():
    target = SloTarget(
        name="occupancy",
        series="switch.occupancy_ratio",
        threshold=0.9,
        budget=0.5,
        aggregate="max",
        per_source=True,
    )
    policy = SloPolicy(
        [target],
        windows=[BurnWindow(short_ms=50.0, long_ms=100.0, burn_threshold=1.0)],
        min_samples=2,
    )
    for t in range(0, 50, 5):
        policy.ingest(_sample(float(t), 0.99, series="switch.occupancy_ratio", source="s1"))
        policy.ingest(_sample(float(t), 0.10, series="switch.occupancy_ratio", source="s2"))
    raised = policy.evaluate(50.0)
    assert [a.source for a in raised] == ["s1"]
    assert raised[0].value == pytest.approx(0.99)


def test_alert_detail_carries_burn_evidence():
    policy = _policy(threshold=10.0, budget=0.05, min_samples=2)
    for t in range(0, 100, 5):
        policy.ingest(_sample(float(t), 50.0))
    (page, _) = policy.evaluate(100.0)
    detail = dict(page.detail)
    assert detail["aggregate"] == "p99"
    assert float(detail["short_burn"]) >= 4.0
    assert float(detail["long_burn"]) >= 4.0


# -- collector integration ---------------------------------------------------------------
def test_policy_alerts_fire_at_cadence_tick_timestamps():
    collector = TelemetryCollector(interval_ms=10.0)
    policy = collector.add_policy(_policy(threshold=10.0, budget=0.05, min_samples=2))
    for t in range(0, 100, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 50.0)
    collector.finish(150.0)
    assert policy.alerts
    for alert in policy.alerts:
        assert alert.t_ms % collector.interval_ms == 0.0
    assert collector.alerts == sorted(
        collector.alerts, key=lambda a: (a.t_ms, a.name)
    )


# -- alert serialization ---------------------------------------------------------------------
def _alerts():
    policy = _policy(threshold=10.0, budget=0.05, min_samples=2)
    for t in range(0, 100, 5):
        policy.ingest(_sample(float(t), 50.0))
    policy.evaluate(100.0)
    return policy.alerts


def test_alert_dict_roundtrip():
    for alert in _alerts():
        assert TelemetryAlert.from_dict(alert.to_dict()) == alert


def test_alerts_jsonl_roundtrip_and_determinism(tmp_path):
    alerts = _alerts()
    buffer = io.StringIO()
    assert write_jsonl(alerts, buffer) == len(alerts)
    assert read_alerts_jsonl(io.StringIO(buffer.getvalue())) == alerts
    path = str(tmp_path / "alerts.jsonl")
    write_jsonl(alerts, path)
    assert read_alerts_jsonl(path) == alerts
    assert jsonl_lines(_alerts()) == jsonl_lines(_alerts())
