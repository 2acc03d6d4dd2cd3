"""Tests for FDRC-style rule caching (admission, eviction, aggregation)."""

import random
from functools import partial

import pytest

from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.serve.cache import PlannedOp, RuleCacheManager, derive_capacity
from repro.serve.stream import flow_address, flow_match
from repro.switches.profiles import SWITCH_1, make_cache_test_profile
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


def test_aggregation_groups_share_eth_type_and_plain_matches_only():
    """A wildcard keeps one EtherType and matches nothing but it and the
    prefix, so IPv4 and IPv6 siblings never fold together and a rule
    that also matches a port is left alone."""
    switch = SWITCH_1.build(seed=1)
    manager = RuleCacheManager(switch, capacity=8)
    base = flow_address(3, 0)

    def add(host, eth_type=0x0800, **fields):
        match = Match(eth_type=eth_type, ip_dst=IpPrefix(base + host, 32), **fields)
        switch.apply_flow_mod(FlowMod(command=FlowModCommand.ADD, match=match, priority=5))
        return match

    ipv4 = [add(0), add(1)]
    add(2, 0x86DD), add(3, 0x86DD)
    assert manager.plan_aggregation(set()) is None  # two of each type only
    assert manager.stats.aggregations == 0
    plain = [add(4), add(5)]
    port = add(6, tp_dst=80)
    ops = manager.plan_aggregation(set())
    deleted = [op.match for op in ops if op.reason == "aggregate-member"]
    assert deleted == ipv4 + plain
    assert port not in deleted
    assert ops[-1].match == Match(eth_type=0x0800, ip_dst=IpPrefix(base, 28))
    assert manager.stats.aggregated_rules == 4


def _reference_plan_installs(manager, items):
    """``plan_installs`` asking for an aggregation at every full slot,
    even after one call found no group."""
    ops, planned_keys, planned_wilds, claimed = [], set(), set(), set()
    tables = manager.switch.tables
    free = None if manager.capacity is None else manager.capacity - len(tables)
    for item in items:
        key = item.match.key()
        if key in planned_keys or tables.lookup_exact(item.match, item.priority):
            manager.stats.coalesced += 1
            continue
        wild = manager.wildcard_match(item.match)
        if wild is not None and (
            wild.key() in planned_wilds
            or tables.lookup_exact(wild, item.priority) is not None
        ):
            manager.stats.coalesced += 1
            continue
        if free is not None and free < 1:
            aggregation = manager.plan_aggregation(claimed)
            if aggregation is not None:
                ops.extend(aggregation)
                planned_wilds.add(aggregation[-1].match.key())
                free += len(aggregation) - 2
        if free is not None and free < 1:
            victim = manager._victim(claimed)
            if victim is None:
                manager.stats.rejected += 1
                continue
            claimed.add(victim.entry_id)
            ops.append(PlannedOp(FlowModCommand.DELETE, victim.match, victim.priority, "evict"))
            manager.stats.evictions += 1
            free += 1
        ops.append(PlannedOp(FlowModCommand.ADD, item.match, item.priority, "install"))
        planned_keys.add(key)
        manager.stats.installs += 1
        if free is not None:
            free -= 1
    return ops


def _count_aggregation_calls(manager):
    calls = [0]
    plan = manager.plan_aggregation

    def counted(excluded):
        calls[0] += 1
        return plan(excluded)

    manager.plan_aggregation = counted
    return calls


@pytest.mark.parametrize("policy", [None, FIFO], ids=["stack-ranked", "sorted"])
def test_plan_installs_matches_every_slot_reference(policy):
    """Seeded random tables and batches, clustered (aggregatable groups
    form) or spread (none do): skipping aggregation after a call found
    no group plans the same ops with the same stats, on both victim
    paths, while asking for fewer aggregations."""
    totals = {"aggregations": 0, "skipped_calls": 0, "batches": 0}
    for seed in range(16):
        rng = random.Random(seed)
        capacity = rng.choice([6, 12, 24])
        spread = rng.choice([16, 32, 64])
        min_rules = rng.choice([2, 3, 4])
        managers = [
            RuleCacheManager(
                _switch(fast=capacity),
                policy=policy,
                capacity=capacity,
                aggregate_min_rules=min_rules,
            )
            for _ in range(2)
        ]
        assert managers[0]._trust_stack_ranking is (policy is None)
        calls = [_count_aggregation_calls(manager) for manager in managers]
        planners = (managers[0].plan_installs, partial(_reference_plan_installs, managers[1]))
        now = 0.0
        for _ in range(25):
            batch = [
                _Arrival(rng.randrange(3), rng.randrange(spread), rng.choice((1, 1, 2)))
                for _ in range(rng.randrange(1, 16))
            ]
            touched = [
                (flow_match(rng.randrange(3), rng.randrange(spread)), rng.choice((1, 2)))
                for _ in range(rng.randrange(8))
            ]
            now += 5.0
            before = [c[0] for c in calls]
            plans = []
            for manager, plan in zip(managers, planners):
                for match, priority in touched:
                    manager.lookup(match, priority, now)
                plans.append(plan(batch))
                _apply(manager, plans[-1])
            assert plans[0] == plans[1]
            assert managers[0].stats == managers[1].stats
            assert len(managers[0].switch.tables) <= capacity
            totals["batches"] += 1
            totals["aggregations"] += sum(op.reason == "aggregate" for op in plans[0])
            totals["skipped_calls"] += (calls[1][0] - before[1]) - (calls[0][0] - before[0])
        assert sorted(e.match.key() for e in managers[0].switch.tables.entries) == sorted(
            e.match.key() for e in managers[1].switch.tables.entries
        )
    assert totals["aggregations"] > 10
    assert totals["skipped_calls"] > 50
