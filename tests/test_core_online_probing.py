"""Tests for online probing and drift detection."""

import pytest

from repro.core.inference import SwitchInferenceEngine
from repro.core.online_probing import DriftDetector, OnlineSizeProber
from repro.core.probing import ProbingEngine, probe_match
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.rng import SeededRng
from repro.switches.profiles import SWITCH_2, SWITCH_3, make_cache_test_profile
from repro.tables.policies import FIFO


def _production_match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(0x2000_0000 + i, 32))


def _engine_with_production(profile, production, seed=3, priority=5000):
    switch = profile.build(seed=seed)
    channel = ControlChannel(switch)
    for i in range(production):
        channel.send_flow_mod(
            FlowMod(FlowModCommand.ADD, _production_match(i), priority=priority)
        )
    return ProbingEngine(channel, rng=SeededRng(seed).child("online"))


def test_validation():
    engine = _engine_with_production(SWITCH_3, 0)
    with pytest.raises(ValueError):
        OnlineSizeProber(engine, max_probe_rules=0)


def test_bounded_switch_free_and_total_capacity():
    engine = _engine_with_production(SWITCH_3, production=200)
    result = OnlineSizeProber(engine).probe()
    assert result.production_rules == 200
    assert result.free_capacity == 767 - 200
    assert result.total_capacity == 767


def test_probe_leaves_production_rules_untouched():
    engine = _engine_with_production(SWITCH_3, production=100)
    switch = engine.channel.switch
    OnlineSizeProber(engine).probe()
    assert switch.num_flows == 100
    # Every production rule is still findable.
    for i in range(100):
        assert switch.tables.lookup_exact(_production_match(i)) is not None


def test_unbounded_switch_reports_none():
    profile = make_cache_test_profile(FIFO, (32, None), layer_means_ms=(0.5, 3.0))
    engine = _engine_with_production(profile, production=10)
    result = OnlineSizeProber(engine, max_probe_rules=128).probe()
    assert result.free_capacity is None
    assert result.total_capacity is None
    assert result.probe_rules_used == 128


def test_empty_switch_total_equals_offline_capacity():
    engine = _engine_with_production(SWITCH_3, production=0)
    result = OnlineSizeProber(engine).probe()
    assert result.total_capacity == 767


def test_result_stored_in_scores():
    engine = _engine_with_production(SWITCH_3, production=10)
    result = OnlineSizeProber(engine).probe()
    assert engine.scores.get("switch3", "online_size_probe") is result


def test_production_rules_on_probe_matches_survive():
    """Cleanup deletes by match: the prober must skip probe matches that
    production rules already use, rather than delete those rules."""
    switch = SWITCH_2.build(seed=3)
    channel = ControlChannel(switch)
    for i in range(500):
        channel.send_flow_mod(FlowMod(FlowModCommand.ADD, probe_match(i), priority=900))
    result = OnlineSizeProber(ProbingEngine(channel)).probe()
    assert switch.num_flows == 500
    for i in range(500):
        assert switch.tables.lookup_exact(probe_match(i)) is not None
    assert result.production_rules == 500
    assert result.total_capacity == 2560


# -- drift detection --------------------------------------------------------------
def _model_dict(**overrides):
    base = {
        "name": "sw",
        "layers": [{"size": 767, "mean_rtt_ms": 0.6}, {"size": None, "mean_rtt_ms": 3.0}],
        "policy": [{"attribute": "insertion", "direction": "DECREASING"}],
        "behavior": {"traffic_driven_caching": False},
        "latency_curves": {
            "add/ascending": {"linear_ms": 0.5, "quadratic_ms": 0.0},
        },
    }
    base.update(overrides)
    return base


def test_no_drift_between_identical_models():
    detector = DriftDetector()
    assert detector.compare(_model_dict(), _model_dict()) == []


def test_small_size_wobble_is_not_drift():
    detector = DriftDetector(size_tolerance=0.05)
    after = _model_dict(
        layers=[{"size": 750, "mean_rtt_ms": 0.6}, {"size": None, "mean_rtt_ms": 3.0}]
    )
    assert detector.compare(_model_dict(), after) == []


def test_large_size_change_detected():
    detector = DriftDetector()
    after = _model_dict(
        layers=[{"size": 369, "mean_rtt_ms": 0.6}, {"size": None, "mean_rtt_ms": 3.0}]
    )
    findings = detector.compare(_model_dict(), after)
    assert any(f.property_path == "layers[0].size" for f in findings)


def test_layer_count_change_detected():
    detector = DriftDetector()
    after = _model_dict(layers=[{"size": 767, "mean_rtt_ms": 0.6}])
    findings = detector.compare(_model_dict(), after)
    assert any(f.property_path == "layers.count" for f in findings)


def test_bounded_to_unbounded_change_detected():
    detector = DriftDetector()
    after = _model_dict(
        layers=[{"size": None, "mean_rtt_ms": 0.6}, {"size": None, "mean_rtt_ms": 3.0}]
    )
    findings = detector.compare(_model_dict(), after)
    assert any(f.property_path == "layers[0].size" for f in findings)


def test_policy_change_detected():
    detector = DriftDetector()
    after = _model_dict(policy=[{"attribute": "usage_time", "direction": "INCREASING"}])
    findings = detector.compare(_model_dict(), after)
    assert any(f.property_path == "policy" for f in findings)


def test_behavior_change_detected():
    detector = DriftDetector()
    after = _model_dict(behavior={"traffic_driven_caching": True})
    findings = detector.compare(_model_dict(), after)
    assert any("behavior" in f.property_path for f in findings)


def test_latency_regression_detected():
    detector = DriftDetector(latency_tolerance=0.25)
    after = _model_dict(
        latency_curves={"add/ascending": {"linear_ms": 2.0, "quadratic_ms": 0.0}}
    )
    findings = detector.compare(_model_dict(), after)
    assert any("latency_curves" in f.property_path for f in findings)


def test_detector_on_real_probe_outputs():
    """End to end: two probes of the same profile show no drift; probing
    a different profile flags the capacity change."""
    first = SwitchInferenceEngine(
        SWITCH_3, seed=1, size_probe_max_rules=1024, latency_batch_sizes=(50, 100)
    ).infer(include_policy=False)
    second = SwitchInferenceEngine(
        SWITCH_3, seed=2, size_probe_max_rules=1024, latency_batch_sizes=(50, 100)
    ).infer(include_policy=False)
    detector = DriftDetector()
    assert detector.compare(first.to_dict(), second.to_dict()) == []

    other = SwitchInferenceEngine(
        SWITCH_2, seed=1, size_probe_max_rules=4096, latency_batch_sizes=(50, 100)
    ).infer(include_policy=False)
    findings = detector.compare(first.to_dict(), other.to_dict())
    assert any("layers[0].size" == f.property_path for f in findings)
