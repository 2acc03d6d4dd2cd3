"""Tests for the OVS microflow-caching model (paper Figure 2a behaviour)."""

import pytest

from repro.openflow.actions import ControllerAction
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel
from repro.switches.ovs import OvsSwitch
from repro.switches.profiles import OVS_PROFILE


def _ovs(kernel_capacity=100):
    return OvsSwitch(
        name="ovs-test",
        kernel_delay=ConstantLatency(1.0),
        userspace_delay=ConstantLatency(4.0),
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=0.05,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.05,
            del_ms=0.05,
            jitter_std_frac=0.0,
        ),
        seed=2,
        kernel_capacity=kernel_capacity,
    )


def _add(switch, match, priority=100):
    switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, match, priority=priority))


def test_first_packet_slow_second_fast():
    """The paper's two-tier per-flow delay: slow then fast (Fig 2a)."""
    ovs = _ovs()
    _add(ovs, Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)))
    first = ovs.forward_packet(PacketFields(ip_dst=1))
    second = ovs.forward_packet(PacketFields(ip_dst=1))
    assert first == pytest.approx(4.0)
    assert second == pytest.approx(1.0)
    assert ovs.kernel_hits == 1


def test_miss_takes_control_path():
    ovs = _ovs()
    assert ovs.forward_packet(PacketFields(ip_dst=9)) == pytest.approx(5.0)
    assert ovs.stats.packets_to_controller == 1


def test_one_to_n_microflow_mapping():
    """One wildcard rule spawns one kernel microflow per distinct flow."""
    ovs = _ovs()
    _add(ovs, Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8)))
    for i in range(5):
        ovs.forward_packet(PacketFields(ip_dst=0x0A000000 + i))
    assert ovs.kernel_cache_size == 5
    # Each microflow now serves its own packets from the kernel.
    assert ovs.forward_packet(PacketFields(ip_dst=0x0A000002)) == pytest.approx(1.0)


def test_kernel_capacity_evicts_oldest():
    ovs = _ovs(kernel_capacity=2)
    _add(ovs, Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8)))
    for i in range(3):
        ovs.forward_packet(PacketFields(ip_dst=0x0A000000 + i))
    assert ovs.kernel_cache_size == 2
    # The first microflow was evicted: slow path again.
    assert ovs.forward_packet(PacketFields(ip_dst=0x0A000000)) == pytest.approx(4.0)


def test_deleting_rule_invalidates_microflow():
    ovs = _ovs()
    match = Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32))
    _add(ovs, match)
    ovs.forward_packet(PacketFields(ip_dst=1))
    ovs.apply_flow_mod(FlowMod(FlowModCommand.DELETE, match, actions=()))
    # The stale kernel entry must not serve the packet.
    assert ovs.forward_packet(PacketFields(ip_dst=1)) == pytest.approx(5.0)


def test_controller_action_rule_punts():
    ovs = _ovs()
    _add_match = Match(eth_type=0x0800, ip_dst=IpPrefix(2, 32))
    ovs.apply_flow_mod(
        FlowMod(FlowModCommand.ADD, _add_match, priority=1, actions=(ControllerAction(),))
    )
    assert ovs.forward_packet(PacketFields(ip_dst=2)) == pytest.approx(5.0)
    assert ovs.kernel_cache_size == 0


def test_install_cost_priority_independent():
    """OVS shows no priority-order effect (paper Fig 3c, flat curves)."""
    ascending = _ovs()
    descending = _ovs()
    for i in range(50):
        _add(ascending, Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32)), priority=i + 1)
    for i in range(50):
        _add(
            descending,
            Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32)),
            priority=50 - i,
        )
    assert ascending.clock.now_ms == pytest.approx(descending.clock.now_ms)


def test_reset_rules_clears_kernel_cache():
    ovs = _ovs()
    _add(ovs, Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)))
    ovs.forward_packet(PacketFields(ip_dst=1))
    ovs.reset_rules()
    assert ovs.kernel_cache_size == 0
    assert ovs.kernel_hits == 0
    assert ovs.num_flows == 0


def test_profile_builds_ovs_switch():
    switch = OVS_PROFILE.build(seed=3)
    assert isinstance(switch, OvsSwitch)
    assert switch.name == "ovs"
