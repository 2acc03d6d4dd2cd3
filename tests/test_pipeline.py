"""Tests for multi-table pipeline switches and pipeline inference."""

import pytest

from repro.core.pipeline_inference import PipelineProber
from repro.openflow.actions import DropAction, GotoTableAction, OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import BadMatchError, TableFullError
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.sim.rng import SeededRng
from repro.switches.base import ControlCostModel
from repro.switches.pipeline import PipelineSwitch, PipelineTableSpec
from repro.switches.profiles import SWITCH_2

COST = ControlCostModel(
    add_base_ms=0.5,
    shift_ms=0.05,
    priority_group_ms=0.1,
    mod_ms=0.3,
    del_ms=0.2,
    jitter_std_frac=0.0,
)


def _pipeline(hardware=0, capacities=(64, None, None)):
    """Three-table pipeline: one fast (hardware) table, two slow ones."""
    specs = []
    for index, capacity in enumerate(capacities):
        delay = ConstantLatency(0.4) if index == hardware else ConstantLatency(2.5)
        specs.append(PipelineTableSpec(capacity=capacity, lookup_delay=delay))
    return PipelineSwitch(
        name="pipe",
        tables=specs,
        control_path_delay=ConstantLatency(8.0),
        cost_model=COST,
        hardware_table_id=hardware,
        seed=3,
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _add(switch, i, table_id=0, actions=(OutputAction(1),), priority=100):
    switch.apply_flow_mod(
        FlowMod(
            FlowModCommand.ADD, _match(i), priority=priority, actions=actions,
            table_id=table_id,
        )
    )


# -- construction / validation --------------------------------------------------
def test_needs_tables():
    with pytest.raises(ValueError):
        PipelineSwitch(
            "x", [], control_path_delay=ConstantLatency(1), cost_model=COST
        )


def test_hardware_table_id_validated():
    with pytest.raises(ValueError):
        _pipeline(hardware=7)


def test_unknown_table_rejected():
    switch = _pipeline()
    with pytest.raises(BadMatchError):
        _add(switch, 1, table_id=9)


def test_goto_must_point_forward():
    switch = _pipeline()
    with pytest.raises(BadMatchError):
        _add(switch, 1, table_id=1, actions=(GotoTableAction(table_id=0),))
    with pytest.raises(BadMatchError):
        _add(switch, 1, table_id=1, actions=(GotoTableAction(table_id=1),))


def test_goto_out_of_range_rejected():
    switch = _pipeline()
    with pytest.raises(BadMatchError):
        _add(switch, 1, table_id=0, actions=(GotoTableAction(table_id=5),))


def test_single_table_switch_rejects_other_tables():
    switch = SWITCH_2.build(seed=1)
    with pytest.raises(BadMatchError):
        switch.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, _match(1), priority=1, table_id=1)
        )


# -- pipeline forwarding -----------------------------------------------------------
def test_single_table_match_forwards():
    switch = _pipeline()
    _add(switch, 1, table_id=0)
    result = switch.forward_packet_detailed(PacketFields(ip_dst=1))
    assert result.matched and not result.punted
    assert result.delay_ms == pytest.approx(0.4)


def test_goto_chain_accumulates_lookup_delays():
    switch = _pipeline()
    _add(switch, 1, table_id=0, actions=(GotoTableAction(table_id=1),))
    _add(switch, 1, table_id=1, actions=(GotoTableAction(table_id=2),))
    _add(switch, 1, table_id=2, actions=(OutputAction(1),))
    result = switch.forward_packet_detailed(PacketFields(ip_dst=1))
    assert result.matched
    assert result.delay_ms == pytest.approx(0.4 + 2.5 + 2.5)


def test_miss_in_later_table_punts():
    switch = _pipeline()
    _add(switch, 1, table_id=0, actions=(GotoTableAction(table_id=1),))
    result = switch.forward_packet_detailed(PacketFields(ip_dst=1))
    assert result.punted
    assert result.delay_ms == pytest.approx(0.4 + 8.0)
    assert switch.stats.packets_to_controller == 1


def test_miss_in_first_table_punts():
    switch = _pipeline()
    result = switch.forward_packet_detailed(PacketFields(ip_dst=9))
    assert result.punted and not result.matched


def test_tables_are_independent_rule_spaces():
    switch = _pipeline()
    _add(switch, 1, table_id=0, actions=(GotoTableAction(table_id=1),), priority=5)
    _add(switch, 1, table_id=1, actions=(DropAction(),), priority=9)
    assert switch.num_flows == 2
    switch.apply_flow_mod(
        FlowMod(FlowModCommand.DELETE, _match(1), actions=(), table_id=1)
    )
    assert switch.num_flows == 1
    # Table 0's rule survives its namesake's deletion in table 1.
    assert switch.stacks[0].lookup_exact(_match(1)) is not None


def test_capacity_enforced_per_table():
    switch = _pipeline(capacities=(2, None, None))
    _add(switch, 1, table_id=0)
    _add(switch, 2, table_id=0)
    with pytest.raises(TableFullError):
        _add(switch, 3, table_id=0)
    # The software tables still absorb rules.
    _add(switch, 3, table_id=1)



def test_rejected_hardware_add_counts_no_shifts():
    switch = _pipeline(capacities=(2, None, None))
    _add(switch, 1, table_id=0, priority=30)
    _add(switch, 2, table_id=0, priority=20)
    assert switch.stats.total_shifts == 1
    with pytest.raises(TableFullError):
        _add(switch, 3, table_id=0, priority=10)
    assert switch.stats.total_shifts == 1
    assert switch.stats.rejected_adds == 1
    assert len(switch.shift_models[0]) == 2

def test_shift_cost_applies_only_to_hardware_table():
    switch = _pipeline()
    start = switch.clock.now_ms
    for i, priority in enumerate((30, 20, 10)):
        _add(switch, i, table_id=1, priority=priority)
    software_time = switch.clock.now_ms - start
    assert switch.stats.total_shifts == 0
    start = switch.clock.now_ms
    for i, priority in enumerate((30, 20, 10)):
        _add(switch, 10 + i, table_id=0, priority=priority)
    hardware_time = switch.clock.now_ms - start
    assert switch.stats.total_shifts == 3
    assert hardware_time > software_time


def test_reset_rules_clears_all_tables():
    switch = _pipeline()
    _add(switch, 1, table_id=0)
    _add(switch, 2, table_id=1)
    switch.reset_rules()
    assert switch.num_flows == 0


def test_flow_stats_report_table_names():
    switch = _pipeline()
    _add(switch, 1, table_id=2)
    from repro.openflow.messages import FlowStatsRequest

    reply = switch.collect_flow_stats(FlowStatsRequest())
    assert reply.entries[0].table_name == "table2"


# -- inference -----------------------------------------------------------------------
def _prober(hardware=0, capacities=(64, None, None), size_cap=256):
    switch = _pipeline(hardware=hardware, capacities=capacities)
    channel = ControlChannel(switch, rng=SeededRng(5).child("pc"))
    return PipelineProber(channel, rng=SeededRng(5).child("pp"), size_cap=size_cap)


def test_count_tables():
    assert _prober().count_tables() == 3


def test_count_tables_single_table_switch():
    switch = SWITCH_2.build(seed=1)
    prober = PipelineProber(ControlChannel(switch), rng=SeededRng(1).child("x"))
    assert prober.count_tables() == 1


def test_lookup_latencies_isolated_per_table():
    prober = _prober(hardware=1)
    lookups = prober.measure_lookups(3)
    # Table 1 is the fast one; increments isolate it.
    assert lookups[1] < lookups[2]
    assert lookups[1] < 1.0
    assert lookups[2] > 2.0


@pytest.mark.parametrize("hardware", [0, 1, 2])
def test_full_probe_finds_hardware_table(hardware):
    result = _prober(hardware=hardware).probe(measure_sizes=False)
    assert result.num_tables == 3
    assert result.hardware_table_id == hardware


def test_full_probe_measures_sizes():
    result = _prober(capacities=(64, 32, None), size_cap=128).probe()
    assert result.table_sizes == [64, 32, None]


def test_probe_leaves_switch_clean():
    prober = _prober(size_cap=128)
    prober.probe()
    assert prober.channel.switch.num_flows == 0
