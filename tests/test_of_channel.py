"""Tests for messages, errors, and the control channel."""

import pytest

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
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _tiny_switch(capacity=4):
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
            jitter_std_frac=0.0,
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
    record = channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    # 0.1 down + 1.0 switch + 0.1 up.
    assert record.latency_ms == pytest.approx(1.2)


def test_channel_history_accumulates():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.0))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    channel.send_flow_mod(FlowMod(FlowModCommand.MODIFY, _match(1)))
    kinds = [r.kind for r in channel.history]
    assert kinds == ["flow_mod:add", "flow_mod:mod"]
    assert channel.total_control_time_ms() == pytest.approx(1.5)


def test_channel_charges_time_even_on_rejection():
    switch = _tiny_switch(capacity=1)
    channel = ControlChannel(switch, rtt=ConstantLatency(0.1))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    before = switch.clock.now_ms
    with pytest.raises(TableFullError):
        channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(2)))
    assert switch.clock.now_ms > before


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


def test_reset_history():
    switch = _tiny_switch()
    channel = ControlChannel(switch, rtt=ConstantLatency(0.0))
    channel.send_flow_mod(FlowMod(FlowModCommand.ADD, _match(1)))
    channel.reset_history()
    assert channel.history == []
    assert channel.total_control_time_ms() == 0.0
