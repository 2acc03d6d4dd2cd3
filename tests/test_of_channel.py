"""Tests for messages, errors, and the control channel."""

import gc

import pytest

from repro.core.probing import ProbingEngine
from repro.openflow.actions import OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import TableFullError
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowStatsRequest,
    PacketOut,
)
from repro.sim.latency import ConstantLatency, GaussianLatency
from repro.sim.rng import SeededRng
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.switches.profiles import VENDOR_PROFILES
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _tiny_switch(capacity=4, jitter_std_frac=0.0):
    return SimulatedSwitch(
        name="tiny",
        layers=[TableLayer("tcam", capacity=capacity)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.5,
            del_ms=0.5,
            jitter_std_frac=jitter_std_frac,
        ),
        seed=1,
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


# -- message validation -------------------------------------------------------
def test_flow_mod_negative_priority_rejected():
    with pytest.raises(ValueError):
        FlowMod(FlowModCommand.ADD, _match(1), priority=-1)


def test_flow_mod_add_requires_actions():
    with pytest.raises(ValueError):
        FlowMod(FlowModCommand.ADD, _match(1), actions=())


def test_flow_mod_delete_allows_empty_actions():
    FlowMod(FlowModCommand.DELETE, _match(1), actions=())


def test_output_action_validates_port():
    with pytest.raises(ValueError):
        OutputAction(port=-1)


# -- channel timing --------------------------------------------------------------
def test_flow_mod_advances_clock_by_channel_and_switch_time():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.1))
    assert channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1))) is None
    # 0.1 down + 1.0 switch + 0.1 up.
    assert switch.clock.now_ms == pytest.approx(1.2)
    assert channel.total_control_time_ms() == pytest.approx(1.2)


def test_channel_counts_each_exchange():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.0))
    assert channel.messages == 0
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    channel.send_flow_mod(FlowMod(FlowModCommand.MODIFY, _match(1)))
    assert channel.messages == 2
    channel.send_barrier()
    channel.request_flow_stats(FlowStatsRequest())
    channel.send_packet_out(PacketOut(PacketFields(ip_dst=1)))
    # Barrier and stats exchanges count; probe packets do not.
    assert channel.messages == 4
    # Only flow_mods are control time: 1.0 add + 0.5 modify.
    assert channel.total_control_time_ms() == pytest.approx(1.5)


def test_channel_charges_time_even_on_rejection():
    switch = _tiny_switch(capacity=1)
    channel = ControlChannel(switch, rtt=ConstantLatency(0.1))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    before = switch.clock.now_ms
    with pytest.raises(TableFullError):
        channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(2)))
    assert switch.clock.now_ms > before
    # A rejected flow_mod adds to neither counter.
    assert channel.messages == 1
    assert channel.total_control_time_ms() == pytest.approx(1.2)


def test_control_time_is_the_in_order_sum_of_flow_mod_clock_deltas():
    """Bit-exact against a left-to-right float sum (not ``sum()``, which
    is compensated from Python 3.12 on), with switch and channel jitter."""
    switch = _tiny_switch(capacity=8, jitter_std_frac=0.05)
    channel = ControlChannel(
        switch, rtt=GaussianLatency(0.05, 0.01), rng=SeededRng(4).child("channel")
    )
    commands = [FlowModCommand.ADD, FlowModCommand.MODIFY, FlowModCommand.DELETE]
    expected = 0.0
    for i in range(60):
        flow_mod = FlowMod(commands[i % 3], _match(i // 3 % 5))
        before = switch.clock.now_ms
        channel.send_flow_mod(flow_mod)
        expected += switch.clock.now_ms - before
        if i % 7 == 0:
            channel.send_barrier()
    assert channel.messages == 60 + 9
    assert channel.total_control_time_ms().hex() == expected.hex()


def _install_then_delete(channel, flows):
    engine = ProbingEngine(channel, rng=SeededRng(2).child("probing"))
    for _ in range(flows):
        engine.install_new_flow()
    engine.remove_all_flows()


def test_probe_messages_leave_no_tracked_objects():
    """Probe flow_mods keep nothing alive once their flows are gone."""
    switch = VENDOR_PROFILES["ovs"].build(seed=1)
    channel = ControlChannel(switch)
    # The first round fills the process-wide probe-flow cache.
    _install_then_delete(channel, 2000)
    gc.collect()
    before = len(gc.get_objects())
    _install_then_delete(channel, 2000)
    gc.collect()
    assert channel.messages == 8000
    assert len(gc.get_objects()) - before < 100


def test_packet_out_returns_rtt_with_path_delay():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.1))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(3)))
    rtt = channel.send_packet_out(PacketOut(PacketFields(ip_dst=3)))
    assert rtt == pytest.approx(0.1 + 0.5 + 0.1)


def test_packet_out_miss_takes_control_path():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.1))
    rtt = channel.send_packet_out(PacketOut(PacketFields(ip_dst=99)))
    assert rtt == pytest.approx(0.1 + 5.0 + 0.1)


def test_barrier_round_trip():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.2))
    reply = channel.send_barrier()
    assert reply.xid == 1
    assert channel.send_barrier().xid == 2


def test_flow_stats_reports_installed_rules():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.0))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1), priority=9))
    reply = channel.request_flow_stats(FlowStatsRequest())
    assert len(reply.entries) == 1
    assert reply.entries[0].priority == 9
    assert reply.entries[0].table_name == "tcam"


def test_flow_stats_filtered_by_match():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.0))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(2)))
    reply = channel.request_flow_stats(FlowStatsRequest(match=_match(2)))
    assert len(reply.entries) == 1
