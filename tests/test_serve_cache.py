"""Tests for FDRC-style rule caching (admission, eviction, aggregation)."""

import pytest

from repro.openflow.messages import FlowMod, FlowModCommand
from repro.serve.cache import RuleCacheManager, derive_capacity
from repro.serve.stream import flow_address, flow_match
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO, LRU


class _Arrival:
    """The minimal item shape ``plan_installs`` consumes."""

    def __init__(self, tenant, destination, priority=1):
        self.match = flow_match(tenant, destination)
        self.priority = priority
        self.flow_key = (tenant, destination)


def _switch(policy=LRU, fast=16):
    return make_cache_test_profile(
        policy, layer_sizes=(fast, None), layer_means_ms=(0.5, 4.8), name="cache-ut"
    ).build(seed=1)


def _apply(manager, ops):
    """Execute a plan directly against the switch (no scheduler)."""
    for op in ops:
        manager.switch.apply_flow_mod(
            FlowMod(
                command=op.command,
                match=op.match,
                priority=op.priority,
                actions=op.actions if op.command is FlowModCommand.ADD else (),
            )
        )


def test_derive_capacity_bounded_and_unbounded():
    bounded = _switch(fast=16)
    kind = flow_match(0, 0).kind
    # fast layer is bounded but the overflow layer is not -> unbounded.
    assert derive_capacity(bounded.tables, kind) is None
    manager = RuleCacheManager(bounded, capacity=16)
    assert manager.capacity == 16


def test_admission_threshold_punts_cold_flows():
    manager = RuleCacheManager(_switch(), capacity=8, admission_threshold=2)
    assert not manager.admit((0, 1), now_ms=0.0)  # first packet-in: punt
    assert manager.stats.punts == 1
    assert manager.admit((0, 1), now_ms=1.0)  # second packet-in: admit
    # The window resets stale counters.
    assert not manager.admit((0, 2), now_ms=10.0)
    assert not manager.admit((0, 2), now_ms=10.0 + manager.admission_window_ms + 1.0)


def test_admission_threshold_one_always_admits():
    manager = RuleCacheManager(_switch(), capacity=8, admission_threshold=1)
    assert manager.admit((0, 1), now_ms=0.0)
    assert manager.stats.punts == 0


def test_plan_installs_coalesces_duplicates():
    manager = RuleCacheManager(_switch(), capacity=8)
    ops = manager.plan_installs([_Arrival(0, 1), _Arrival(0, 1)])
    assert len(ops) == 1 and ops[0].reason == "install"
    assert manager.stats.coalesced == 1
    _apply(manager, ops)
    # Already installed -> coalesced again, no new ops.
    assert manager.plan_installs([_Arrival(0, 1)]) == []
    assert manager.stats.coalesced == 2


def test_eviction_respects_policy_ranking():
    manager = RuleCacheManager(
        _switch(policy=LRU, fast=4),
        capacity=4,
        aggregate_min_rules=64,  # effectively disable aggregation
    )
    arrivals = [_Arrival(t, 1) for t in range(4)]  # distinct /28 groups
    _apply(manager, manager.plan_installs(arrivals))
    assert len(manager.switch.tables) == 4
    # Touch three of the four; the untouched one is the LRU victim.
    for t, when in ((0, 10.0), (1, 11.0), (3, 12.0)):
        assert manager.lookup(flow_match(t, 1), priority=1, now_ms=when) is not None
    ops = manager.plan_installs([_Arrival(7, 1)])
    deletes = [op for op in ops if op.command is FlowModCommand.DELETE]
    assert [op.reason for op in deletes] == ["evict"]
    assert deletes[0].match == flow_match(2, 1)  # the never-touched flow
    assert manager.stats.evictions == 1
    _apply(manager, ops)
    assert len(manager.switch.tables) == 4  # budget never overcommitted


def test_inferred_policy_override_drives_eviction():
    # The switch runs LRU but the manager is handed a FIFO policy, as if
    # Algorithm 2 had inferred oldest-inserted retention: FIFO *keeps*
    # the oldest flows, so the newest insertion is the victim.
    manager = RuleCacheManager(
        _switch(policy=LRU, fast=4),
        policy=FIFO,
        capacity=4,
        aggregate_min_rules=64,
    )
    assert not manager._trust_stack_ranking
    for t in range(4):
        _apply(manager, manager.plan_installs([_Arrival(t, 1)]))
    # Touch the newest insert so LRU would evict stale tenant 0 instead;
    # the FIFO override must still pick the newest insertion.
    manager.lookup(flow_match(3, 1), priority=1, now_ms=50.0)
    ops = manager.plan_installs([_Arrival(9, 1)])
    victim = next(op for op in ops if op.reason == "evict")
    assert victim.match == flow_match(3, 1)  # newest insertion goes first


def test_aggregation_folds_compatible_siblings():
    manager = RuleCacheManager(
        _switch(fast=8),
        capacity=8,
        aggregate_prefix_len=28,
        aggregate_min_rules=4,
    )
    # Eight flows of one tenant: destinations 0..7 share one /28 group
    # (tenant<<12 | d for d < 16).
    arrivals = [_Arrival(5, d) for d in range(8)]
    _apply(manager, manager.plan_installs(arrivals))
    assert len(manager.switch.tables) == 8
    ops = manager.plan_installs([_Arrival(5, 9)])
    reasons = [op.reason for op in ops]
    assert reasons.count("aggregate-member") == 8
    assert reasons.count("aggregate") == 1
    assert reasons.count("install") == 1  # the trigger still gets its rule
    assert manager.stats.aggregations == 1
    assert manager.stats.aggregated_rules == 8
    _apply(manager, ops)
    # 8 exact rules folded into one /28 wildcard (+ the new exact rule).
    assert len(manager.switch.tables) == 2
    wildcard = next(
        e for e in manager.switch.tables.entries if e.match.ip_dst.length == 28
    )
    assert wildcard.match.ip_dst.value == flow_address(5, 0) & ~0xF
    # Later flows in the group hit through the wildcard...
    hit = manager.lookup(flow_match(5, 12), priority=1, now_ms=2.0)
    assert hit is not None
    assert manager.stats.wildcard_hits == 1
    # ...and planning coalesces them onto it instead of installing.
    assert manager.plan_installs([_Arrival(5, 13)]) == []
    assert manager.stats.coalesced == 1


def test_planned_rejection_when_nothing_evictable():
    manager = RuleCacheManager(_switch(fast=4), capacity=0, aggregate_min_rules=64)
    ops = manager.plan_installs([_Arrival(0, 1)])
    assert ops == []
    assert manager.stats.rejected == 1


def test_expired_entries_and_admission_pruning():
    manager = RuleCacheManager(_switch(), capacity=8, admission_threshold=3)
    _apply(manager, manager.plan_installs([_Arrival(0, 1), _Arrival(0, 2)]))
    manager.lookup(flow_match(0, 1), priority=1, now_ms=100.0)
    expired = manager.expired_entries(now_ms=150.0, idle_timeout_ms=60.0)
    # (0,2) was never used after insert at ~0; (0,1) was touched at 100.
    assert [e.match for e in expired] == [flow_match(0, 2)]
    assert not manager.admit((9, 9), now_ms=0.0)
    assert manager.prune_admission(now_ms=1000.0) == 1


def test_constructor_validation():
    switch = _switch()
    with pytest.raises(ValueError):
        RuleCacheManager(switch, admission_threshold=0)
    with pytest.raises(ValueError):
        RuleCacheManager(switch, aggregate_prefix_len=32)
    with pytest.raises(ValueError):
        RuleCacheManager(switch, aggregate_min_rules=1)


def test_worst_entries_matches_ranking():
    switch = _switch(policy=LRU, fast=8)
    manager = RuleCacheManager(switch, capacity=8)
    _apply(manager, manager.plan_installs([_Arrival(t, 1) for t in range(5)]))
    for t, when in ((1, 5.0), (2, 6.0), (3, 7.0), (4, 8.0), (0, 9.0)):
        manager.lookup(flow_match(t, 1), priority=1, now_ms=when)
    worst = switch.tables.worst_entries(2)
    assert [e.match for e in worst] == [flow_match(1, 1), flow_match(2, 1)]
