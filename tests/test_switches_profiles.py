"""Tests for vendor profiles: Table 1 capacities and Figure 2/3 behaviours."""

import pytest

from repro.openflow.channel import ControlChannel
from repro.openflow.errors import TableFullError
from repro.openflow.match import MatchKind
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut
from repro.core.probing import probe_match, probe_packet
from repro.switches.profiles import (
    OVS_PROFILE,
    SWITCH_1,
    SWITCH_2,
    SWITCH_3,
    VENDOR_PROFILES,
    make_cache_test_profile,
)
from repro.tables.policies import LRU


def _fill_to_reject(switch, kind, limit=6000):
    count = 0
    while count < limit:
        flow_mod = FlowMod(
            FlowModCommand.ADD, probe_match(count, kind), priority=100
        )
        try:
            switch.apply_flow_mod(flow_mod)
        except TableFullError:
            return count
        count += 1
    return count


# -- Table 1 capacities ------------------------------------------------------------
def test_switch2_holds_2560_of_any_kind():
    for kind in (MatchKind.L3, MatchKind.L2, MatchKind.L2_L3):
        switch = SWITCH_2.build(seed=1)
        assert _fill_to_reject(switch, kind) == 2560


def test_switch3_narrow_767_wide_369():
    assert _fill_to_reject(SWITCH_3.build(seed=1), MatchKind.L3) == 767
    assert _fill_to_reject(SWITCH_3.build(seed=1), MatchKind.L2_L3) == 369


def test_switch1_tcam_4k_narrow_2k_wide_with_software_overflow():
    switch = SWITCH_1.build(seed=1)
    for i in range(5000):
        switch.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, probe_match(i, MatchKind.L3), priority=100)
        )
    assert switch.tables.layer_occupancy() == [4096, 904]

    wide = SWITCH_1.build(seed=2)
    for i in range(3000):
        wide.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, probe_match(i, MatchKind.L2_L3), priority=100)
        )
    assert wide.tables.layer_occupancy() == [2048, 952]


def test_registry_contains_all_four_vendors():
    assert set(VENDOR_PROFILES) == {"ovs", "switch1", "switch2", "switch3"}


# -- Figure 2 delay tiers ---------------------------------------------------------
def test_switch1_three_tier_delays():
    """Fig 2b: fast ~0.665ms, slow ~3.7ms, control ~7.5ms."""
    switch = SWITCH_1.build(seed=3)
    channel = ControlChannel(switch)
    for i in range(2100):
        channel.send_flow_mod(
            FlowMod(FlowModCommand.ADD, probe_match(i, MatchKind.L2_L3), priority=100)
        )
    fast = channel.send_packet_out(PacketOut(probe_packet(10)))
    slow = channel.send_packet_out(PacketOut(probe_packet(2090)))
    control = channel.send_packet_out(PacketOut(probe_packet(5000)))
    assert fast < 1.2
    assert 2.5 < slow < 5.0
    assert control > 6.0


def test_switch2_two_tier_delays():
    """Fig 2c: fast ~0.4ms, control ~8ms; no slow tier exists."""
    switch = SWITCH_2.build(seed=3)
    channel = ControlChannel(switch)
    channel.send_flow_mod(
        FlowMod(FlowModCommand.ADD, probe_match(0, MatchKind.L3), priority=100)
    )
    fast = channel.send_packet_out(PacketOut(probe_packet(0)))
    control = channel.send_packet_out(PacketOut(probe_packet(1)))
    assert fast < 1.0
    assert control > 6.0


def test_ovs_three_tier_delays():
    """Fig 2a: fast 3ms, slow ~4.5ms, control ~4.65ms."""
    switch = OVS_PROFILE.build(seed=3)
    channel = ControlChannel(switch)
    channel.send_flow_mod(
        FlowMod(FlowModCommand.ADD, probe_match(0, MatchKind.L3), priority=100)
    )
    slow = channel.send_packet_out(PacketOut(probe_packet(0)))
    fast = channel.send_packet_out(PacketOut(probe_packet(0)))
    control = channel.send_packet_out(PacketOut(probe_packet(1)))
    assert 3.4 < slow < 6.0
    assert fast == pytest.approx(3.0, abs=0.3)
    assert 4.0 < control < 5.6


# -- Figure 3c priority-order asymmetry ----------------------------------------------
def _install_time(profile, priorities, seed):
    switch = profile.build(seed=seed)
    start = switch.clock.now_ms
    for i, priority in enumerate(priorities):
        switch.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, probe_match(i, MatchKind.L3), priority=priority)
        )
    return switch.clock.now_ms - start


def test_switch1_descending_much_slower_than_ascending():
    n = 500
    ascending = _install_time(SWITCH_1, list(range(1, n + 1)), seed=1)
    descending = _install_time(SWITCH_1, list(range(n, 0, -1)), seed=2)
    same = _install_time(SWITCH_1, [100] * n, seed=3)
    assert descending > 5 * ascending
    assert same <= ascending


def test_ovs_priority_order_has_no_effect():
    n = 300
    ascending = _install_time(OVS_PROFILE, list(range(1, n + 1)), seed=1)
    descending = _install_time(OVS_PROFILE, list(range(n, 0, -1)), seed=1)
    assert descending == pytest.approx(ascending, rel=0.25)


# -- cache-test factory ---------------------------------------------------------------
def test_cache_test_profile_shape():
    profile = make_cache_test_profile(LRU, layer_sizes=(16, 32, None))
    switch = profile.build(seed=1)
    assert len(switch.tables.layers) == 3
    assert switch.tables.layers[0].capacity == 16
    assert profile.true_layer_sizes == (16, 32, None)


def test_cache_test_profile_validates_alignment():
    with pytest.raises(ValueError):
        make_cache_test_profile(LRU, layer_sizes=(16,), layer_means_ms=(0.5, 1.0))


def test_with_policy_renames_profile():
    renamed = SWITCH_1.with_policy(LRU)
    assert renamed.policy is LRU
    assert "LRU" in renamed.name
