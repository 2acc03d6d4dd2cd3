"""Tests for the multi-level ranked table stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.openflow.actions import OutputAction
from repro.openflow.errors import TableFullError
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.tables.policies import FIFO, LIFO, LRU, LFU, PRIORITY_CACHE
from repro.tables.stack import RankedTableStack, TableLayer
from repro.tables.tcam import TcamGeometry, TcamMode

ACTIONS = (OutputAction(1),)


def _match(i, wide=False):
    if wide:
        return Match(eth_dst=i, eth_type=0x0800, ip_dst=IpPrefix(i, 32))
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _stack(layers=None, policy=FIFO):
    layers = layers or [TableLayer("fast", capacity=2), TableLayer("slow", capacity=None)]
    return RankedTableStack(layers, policy)


# -- construction --------------------------------------------------------------
def test_needs_layers():
    with pytest.raises(ValueError):
        RankedTableStack([], FIFO)


def test_only_last_layer_may_be_unbounded():
    with pytest.raises(ValueError):
        RankedTableStack(
            [TableLayer("a", capacity=None), TableLayer("b", capacity=4)], FIFO
        )


def test_layer_rejects_capacity_and_geometry_together():
    with pytest.raises(ValueError):
        TableLayer("x", capacity=4, geometry=TcamGeometry(slot_units=4))


# -- insert / delete -----------------------------------------------------------
def test_insert_and_lookup():
    stack = _stack()
    entry = stack.insert(_match(1), 5, ACTIONS, now_ms=0.0)
    assert stack.lookup_exact(_match(1)) is entry
    assert stack.lookup_exact(_match(1), priority=5) is entry
    assert stack.lookup_exact(_match(1), priority=6) is None
    assert _match(1) in stack
    assert len(stack) == 1


def test_remove():
    stack = _stack()
    entry = stack.insert(_match(1), 5, ACTIONS, now_ms=0.0)
    stack.remove(entry)
    assert len(stack) == 0
    assert stack.lookup_exact(_match(1)) is None


def test_remove_unknown_rejected():
    stack = _stack()
    entry = stack.insert(_match(1), 5, ACTIONS, now_ms=0.0)
    stack.remove(entry)
    with pytest.raises(KeyError):
        stack.remove(entry)


def test_bounded_stack_rejects_overflow():
    stack = RankedTableStack([TableLayer("only", capacity=2)], FIFO)
    stack.insert(_match(1), 1, ACTIONS, 0.0)
    stack.insert(_match(2), 1, ACTIONS, 1.0)
    with pytest.raises(TableFullError):
        stack.insert(_match(3), 1, ACTIONS, 2.0)


def test_unbounded_last_layer_absorbs_overflow():
    stack = _stack()
    for i in range(10):
        stack.insert(_match(i), 1, ACTIONS, float(i))
    assert len(stack) == 10
    assert stack.layer_occupancy() == [2, 8]


def test_hard_limit_enforced():
    stack = RankedTableStack([TableLayer("u", capacity=None)], FIFO, hard_limit=3)
    for i in range(3):
        stack.insert(_match(i), 1, ACTIONS, float(i))
    with pytest.raises(TableFullError):
        stack.insert(_match(99), 1, ACTIONS, 9.0)


# -- placement by policy -----------------------------------------------------------
def test_fifo_keeps_oldest_in_fast_layer():
    stack = _stack(policy=FIFO)
    entries = [stack.insert(_match(i), 1, ACTIONS, float(i)) for i in range(5)]
    assert stack.layer_of(entries[0]) == 0
    assert stack.layer_of(entries[1]) == 0
    assert all(stack.layer_of(e) == 1 for e in entries[2:])


def test_lifo_keeps_newest_in_fast_layer():
    stack = _stack(policy=LIFO)
    entries = [stack.insert(_match(i), 1, ACTIONS, float(i)) for i in range(5)]
    assert stack.layer_of(entries[4]) == 0
    assert stack.layer_of(entries[3]) == 0
    assert all(stack.layer_of(e) == 1 for e in entries[:3])


def test_lru_promotion_on_touch():
    stack = _stack(policy=LRU)
    entries = [stack.insert(_match(i), 1, ACTIONS, float(i)) for i in range(4)]
    for i, entry in enumerate(entries):
        stack.touch(entry, now_ms=10.0 + i)
    # Most recently used two are cached.
    assert stack.layer_of(entries[3]) == 0
    assert stack.layer_of(entries[2]) == 0
    assert stack.layer_of(entries[0]) == 1
    # Touch an evicted entry: it must displace the least recent cached one.
    stack.touch(entries[0], now_ms=99.0)
    assert stack.layer_of(entries[0]) == 0
    assert stack.layer_of(entries[2]) == 1


def test_lfu_ranks_by_traffic():
    stack = _stack(policy=LFU)
    entries = [stack.insert(_match(i), 1, ACTIONS, 0.0) for i in range(4)]
    stack.touch(entries[1], 1.0, packets=10)
    stack.touch(entries[3], 2.0, packets=5)
    assert stack.layer_of(entries[1]) == 0
    assert stack.layer_of(entries[3]) == 0
    assert stack.layer_of(entries[0]) == 1


def test_priority_cache_ranks_by_priority():
    stack = _stack(policy=PRIORITY_CACHE)
    low = stack.insert(_match(1), 1, ACTIONS, 0.0)
    mid = stack.insert(_match(2), 5, ACTIONS, 1.0)
    high = stack.insert(_match(3), 9, ACTIONS, 2.0)
    assert stack.layer_of(high) == 0
    assert stack.layer_of(mid) == 0
    assert stack.layer_of(low) == 1


def test_update_priority_reranks():
    stack = _stack(policy=PRIORITY_CACHE)
    entries = [stack.insert(_match(i), i, ACTIONS, 0.0) for i in range(4)]
    assert stack.layer_of(entries[0]) == 1
    stack.update_priority(entries[0], 100)
    assert stack.layer_of(entries[0]) == 0


# -- TCAM geometry layers -------------------------------------------------------
def test_geometry_layer_narrow_capacity():
    geometry = TcamGeometry(slot_units=4, mode=TcamMode.ADAPTIVE, wide_cost=2.0)
    stack = RankedTableStack(
        [TableLayer("tcam", geometry=geometry), TableLayer("sw", capacity=None)], FIFO
    )
    for i in range(6):
        stack.insert(_match(i), 1, ACTIONS, float(i))
    assert stack.layer_occupancy() == [4, 2]


def test_geometry_layer_wide_entries_cost_double():
    geometry = TcamGeometry(slot_units=4, mode=TcamMode.ADAPTIVE, wide_cost=2.0)
    stack = RankedTableStack(
        [TableLayer("tcam", geometry=geometry), TableLayer("sw", capacity=None)], FIFO
    )
    for i in range(4):
        stack.insert(_match(i, wide=True), 1, ACTIONS, float(i))
    assert stack.layer_occupancy() == [2, 2]


def test_geometry_mixed_widths_walk():
    geometry = TcamGeometry(slot_units=3, mode=TcamMode.ADAPTIVE, wide_cost=2.0)
    stack = RankedTableStack(
        [TableLayer("tcam", geometry=geometry), TableLayer("sw", capacity=None)], FIFO
    )
    first = stack.insert(_match(0, wide=True), 1, ACTIONS, 0.0)  # cost 2
    second = stack.insert(_match(1), 1, ACTIONS, 1.0)  # cost 1 -> fits (3 units)
    third = stack.insert(_match(2), 1, ACTIONS, 2.0)  # overflow
    assert stack.layer_of(first) == 0
    assert stack.layer_of(second) == 0
    assert stack.layer_of(third) == 1


def test_geometry_bounded_rejects_when_full():
    geometry = TcamGeometry(slot_units=2, mode=TcamMode.DOUBLE_WIDE)
    stack = RankedTableStack([TableLayer("tcam", geometry=geometry)], FIFO)
    stack.insert(_match(0), 1, ACTIONS, 0.0)
    with pytest.raises(TableFullError):
        stack.insert(_match(1), 1, ACTIONS, 1.0)


# -- packet matching ----------------------------------------------------------------
def test_match_packet_picks_highest_priority():
    stack = _stack()
    low = stack.insert(Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8)), 1, ACTIONS, 0.0)
    high = stack.insert(Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000005, 32)), 9, ACTIONS, 1.0)
    best = stack.match_packet(PacketFields(ip_dst=0x0A000005))
    assert best is high
    other = stack.match_packet(PacketFields(ip_dst=0x0A000006))
    assert other is low


def test_match_packet_none_when_no_rule():
    stack = _stack()
    assert stack.match_packet(PacketFields(ip_dst=1)) is None


def test_match_packet_uses_eth_dst_index():
    stack = _stack()
    rule = stack.insert(Match(eth_dst=42), 1, ACTIONS, 0.0)
    assert stack.match_packet(PacketFields(eth_dst=42)) is rule
    assert stack.match_packet(PacketFields(eth_dst=43)) is None


def test_entries_by_rank_order():
    stack = _stack(policy=FIFO)
    entries = [stack.insert(_match(i), 1, ACTIONS, float(i)) for i in range(4)]
    assert stack.entries_by_rank() == entries


def test_clear_resets_everything():
    stack = _stack()
    stack.insert(_match(1), 1, ACTIONS, 0.0)
    stack.clear()
    assert len(stack) == 0
    assert stack.layer_occupancy() == [0, 0]
    assert stack.match_packet(PacketFields(ip_dst=1)) is None


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # match id
            st.integers(min_value=0, max_value=9),  # priority
            st.sampled_from(["insert", "touch", "delete"]),
        ),
        max_size=60,
    )
)
def test_stack_invariants_under_random_operations(ops):
    """Occupancy always honours capacities; rank bookkeeping stays consistent."""
    stack = RankedTableStack(
        [TableLayer("fast", capacity=3), TableLayer("slow", capacity=None)], LRU
    )
    live = {}
    now = 0.0
    for match_id, priority, op in ops:
        now += 1.0
        if op == "insert" and match_id not in live:
            live[match_id] = stack.insert(_match(match_id), priority, ACTIONS, now)
        elif op == "touch" and match_id in live:
            stack.touch(live[match_id], now)
        elif op == "delete" and match_id in live:
            stack.remove(live.pop(match_id))
        occupancy = stack.layer_occupancy()
        assert occupancy[0] <= 3
        assert sum(occupancy) == len(live)
        for entry in live.values():
            assert 0 <= stack.layer_of(entry) <= 1
