"""Tests for Algorithm 2 (cache-policy inference)."""

import pytest

from repro.core.policy_inference import PolicyProber
from repro.core.probing import ProbingEngine
from repro.openflow.channel import ControlChannel
from repro.sim.rng import SeededRng
from repro.switches.profiles import make_cache_test_profile
from repro.tables.entry import FlowAttribute
from repro.tables.policies import (
    FIFO,
    LIFO,
    LFU,
    LRU,
    PRIORITY_CACHE,
    PRIORITY_THEN_LRU,
    STANDARD_POLICIES,
    TRAFFIC_THEN_PRIORITY,
    Direction,
)

CACHE = 64


def _probe(policy, seed=7, cache_size=CACHE, layers=None):
    if layers is None:
        layers = (cache_size, 2 * cache_size, None)
    profile = make_cache_test_profile(
        policy, layers, layer_means_ms=(0.5, 2.5, 4.8)[: len(layers)]
    )
    switch = profile.build(seed=seed)
    engine = ProbingEngine(ControlChannel(switch), rng=SeededRng(seed).child(policy.name))
    return PolicyProber(engine, cache_size=cache_size).probe()


def test_cache_size_too_small_rejected(small_engine):
    with pytest.raises(ValueError):
        PolicyProber(small_engine, cache_size=4)


def test_fifo_detected():
    result = _probe(FIFO)
    assert result.terms[0] == (FlowAttribute.INSERTION, Direction.DECREASING)
    assert result.rounds == 1  # serial attribute terminates immediately


def test_lifo_detected():
    result = _probe(LIFO)
    assert result.terms[0] == (FlowAttribute.INSERTION, Direction.INCREASING)


def test_lru_detected():
    result = _probe(LRU)
    assert result.terms[0] == (FlowAttribute.USE_TIME, Direction.INCREASING)
    assert result.rounds == 1


def test_lfu_primary_detected():
    result = _probe(LFU)
    assert result.terms[0] == (FlowAttribute.TRAFFIC, Direction.INCREASING)


def test_priority_cache_detected():
    result = _probe(PRIORITY_CACHE)
    assert result.terms[0] == (FlowAttribute.PRIORITY, Direction.INCREASING)


def test_lexicographic_traffic_then_priority():
    result = _probe(TRAFFIC_THEN_PRIORITY)
    assert result.terms[0] == (FlowAttribute.TRAFFIC, Direction.INCREASING)
    assert result.terms[1] == (FlowAttribute.PRIORITY, Direction.INCREASING)


def test_lexicographic_priority_then_lru():
    result = _probe(PRIORITY_THEN_LRU)
    assert result.terms[0] == (FlowAttribute.PRIORITY, Direction.INCREASING)
    assert result.terms[1] == (FlowAttribute.USE_TIME, Direction.INCREASING)
    # Use time is serial, so the probe must stop there.
    assert len(result.terms) == 2


def test_terms_unique_attributes():
    result = _probe(TRAFFIC_THEN_PRIORITY)
    attributes = [a for a, _ in result.terms]
    assert len(set(attributes)) == len(attributes)


def test_correlations_recorded_per_round():
    result = _probe(LFU)
    assert len(result.correlations) == result.rounds
    # Round 1 correlates raw attributes; traffic must dominate.
    first = result.correlations[0]
    assert abs(first["traffic"]) > 0.9


def test_as_policy_roundtrip():
    result = _probe(LRU)
    policy = result.as_policy(name="probed")
    assert policy.primary is FlowAttribute.USE_TIME
    assert policy.name == "probed"


def test_probe_cleans_up_flows():
    profile = make_cache_test_profile(FIFO, (32, 64, None), layer_means_ms=(0.5, 2.5, 4.8))
    switch = profile.build(seed=5)
    engine = ProbingEngine(ControlChannel(switch), rng=SeededRng(5).child("x"))
    PolicyProber(engine, cache_size=32).probe()
    assert switch.num_flows == 0


def test_different_seeds_agree():
    """Policy inference must be robust to the probing RNG."""
    for seed in (1, 2, 3):
        result = _probe(LRU, seed=seed)
        assert result.terms[0] == (FlowAttribute.USE_TIME, Direction.INCREASING)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("layers", [(32, 64, None), (64, None)], ids=["32-64-inf", "64-inf"])
@pytest.mark.parametrize("name", sorted(STANDARD_POLICIES))
def test_verdict_matrix_given_true_cache_size(name, layers, seed):
    """Every standard policy's terms, on two layer sets and three seeds."""
    policy = STANDARD_POLICIES[name]
    result = _probe(policy, seed=seed, cache_size=layers[0], layers=layers)
    assert tuple(result.terms[: len(policy.terms)]) == policy.terms


def _all_free_round():
    profile = make_cache_test_profile(
        FIFO, (CACHE, 2 * CACHE, None), layer_means_ms=(0.5, 2.5, 4.8)
    )
    switch = profile.build(seed=7)
    engine = ProbingEngine(ControlChannel(switch), rng=SeededRng(7).child("round"))
    prober = PolicyProber(engine, cache_size=CACHE)
    return switch, prober._initialise_round(list(FlowAttribute))


def test_all_free_round_pays_only_the_forced_shifts():
    """Only second-class low-priority flows shift, each past the first
    class's high-priority flows: (s/4)^2 shifts in all."""
    switch, (handles, _, _) = _all_free_round()
    s = len(handles)
    assert s == 2 * CACHE
    assert switch.stats.total_shifts == (s // 4) ** 2


def test_round_sends_one_traffic_pass_ending_in_the_use_packet():
    switch, (_, _, values) = _all_free_round()
    traffic = values[FlowAttribute.TRAFFIC]
    counts = [entry.traffic_count for entry in switch.tables.entries]
    assert set(traffic) == {1.0, 11.0}
    assert sorted(counts) == sorted(int(t) for t in traffic)
    stats = switch.stats
    assert sum(stats.packets_by_layer) + stats.packets_to_controller == sum(counts)


@pytest.mark.parametrize(
    "policy, primary",
    [
        (FIFO, FlowAttribute.INSERTION),
        (LRU, FlowAttribute.USE_TIME),
        (LFU, FlowAttribute.TRAFFIC),
        (PRIORITY_CACHE, FlowAttribute.PRIORITY),
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_first_round_leaves_non_primary_attributes_uncorrelated(policy, primary):
    """Correlating against the independent design halves keeps the
    priority layout's rank coupling out of every other attribute."""
    first = _probe(policy).correlations[0]
    assert abs(first[primary.value]) > 0.99
    for attribute in FlowAttribute:
        if attribute is not primary:
            assert abs(first[attribute.value]) < 0.05
