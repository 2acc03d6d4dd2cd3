"""Tests for the simulated switch control and data planes."""

import pytest

from repro.openflow.actions import ControllerAction, OutputAction
from repro.openflow.errors import TableFullError
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer

COST = ControlCostModel(
    add_base_ms=1.0,
    shift_ms=0.1,
    priority_group_ms=0.5,
    mod_ms=0.3,
    del_ms=0.2,
    jitter_std_frac=0.0,
)


def _switch(capacity=8, unbounded_tail=True):
    layers = [TableLayer("tcam", capacity=capacity)]
    delays = [ConstantLatency(0.5)]
    if unbounded_tail:
        layers.append(TableLayer("sw", capacity=None))
        delays.append(ConstantLatency(3.0))
    return SimulatedSwitch(
        name="test",
        layers=layers,
        policy=FIFO,
        layer_delays=delays,
        control_path_delay=ConstantLatency(8.0),
        cost_model=COST,
        seed=4,
    )


def _add(switch, i, priority=100, actions=(OutputAction(1),)):
    switch.apply_flow_mod(
        FlowMod(
            FlowModCommand.ADD,
            Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32)),
            priority=priority,
            actions=actions,
        )
    )


def test_cost_model_validation():
    with pytest.raises(ValueError):
        ControlCostModel(
            add_base_ms=-1, shift_ms=0, priority_group_ms=0, mod_ms=0, del_ms=0
        )


@pytest.mark.parametrize("name", ["add_base_ms", "del_ms", "jitter_std_frac"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cost_model_rejects_non_finite(name, value):
    """A NaN cost once became 0.0 under jitter and a NaN clock without."""
    params = dict(add_base_ms=1, shift_ms=0, priority_group_ms=0, mod_ms=0, del_ms=0)
    params[name] = value
    with pytest.raises(ValueError):
        ControlCostModel(**params)


def test_cost_model_rejects_negative_jitter():
    with pytest.raises(ValueError):
        ControlCostModel(
            add_base_ms=1, shift_ms=0, priority_group_ms=0, mod_ms=0, del_ms=0,
            jitter_std_frac=-0.1,
        )


def test_mismatched_delay_models_rejected():
    with pytest.raises(ValueError):
        SimulatedSwitch(
            name="bad",
            layers=[TableLayer("a", capacity=1)],
            policy=FIFO,
            layer_delays=[],
            control_path_delay=ConstantLatency(1.0),
            cost_model=COST,
        )


# -- control-plane costs -------------------------------------------------------
def test_first_add_pays_base_plus_group():
    switch = _switch()
    _add(switch, 1)
    assert switch.clock.now_ms == pytest.approx(1.0 + 0.5)


def test_same_priority_second_add_skips_group_cost():
    switch = _switch()
    _add(switch, 1, priority=7)
    before = switch.clock.now_ms
    _add(switch, 2, priority=7)
    assert switch.clock.now_ms - before == pytest.approx(1.0)


def test_descending_add_pays_shift_cost():
    switch = _switch()
    for i, priority in enumerate((30, 20, 10)):
        _add(switch, i, priority=priority)
    # Adds shifted 0, 1, 2 entries respectively.
    expected = 3 * (1.0 + 0.5) + 0.1 * (0 + 1 + 2)
    assert switch.clock.now_ms == pytest.approx(expected)
    assert switch.stats.total_shifts == 3


def test_ascending_adds_never_shift():
    switch = _switch()
    for i, priority in enumerate((10, 20, 30)):
        _add(switch, i, priority=priority)
    assert switch.stats.total_shifts == 0


def test_modify_updates_actions_flat_cost():
    switch = _switch()
    _add(switch, 1)
    before = switch.clock.now_ms
    switch.apply_flow_mod(
        FlowMod(
            FlowModCommand.MODIFY,
            Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)),
            priority=100,
            actions=(OutputAction(9),),
        )
    )
    assert switch.clock.now_ms - before == pytest.approx(0.3)
    entry = switch.tables.lookup_exact(Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)))
    assert entry.actions == (OutputAction(9),)
    assert switch.stats.mods == 1


def test_modify_of_missing_flow_acts_as_add():
    switch = _switch()
    switch.apply_flow_mod(
        FlowMod(
            FlowModCommand.MODIFY,
            Match(eth_type=0x0800, ip_dst=IpPrefix(5, 32)),
            priority=10,
        )
    )
    assert switch.num_flows == 1
    assert switch.stats.adds == 1
    assert switch.stats.mods == 0


def test_modify_with_new_priority_reranks_shift_model():
    switch = _switch()
    _add(switch, 1, priority=10)
    switch.apply_flow_mod(
        FlowMod(
            FlowModCommand.MODIFY,
            Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)),
            priority=50,
        )
    )
    entry = switch.tables.lookup_exact(Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)))
    assert entry.priority == 50
    # Shift model must track the new priority (adding at 40 shifts one).
    assert switch.shift_model.shifts_for_add(40) == 1


def test_delete_removes_and_is_idempotent():
    switch = _switch()
    _add(switch, 1)
    match = Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32))
    switch.apply_flow_mod(FlowMod(FlowModCommand.DELETE, match, actions=()))
    assert switch.num_flows == 0
    before = switch.clock.now_ms
    switch.apply_flow_mod(FlowMod(FlowModCommand.DELETE, match, actions=()))
    assert switch.num_flows == 0
    assert switch.clock.now_ms - before == pytest.approx(0.2)
    assert switch.stats.dels == 1


def test_rejected_add_raises_and_counts():
    switch = _switch(capacity=2, unbounded_tail=False)
    _add(switch, 1)
    _add(switch, 2)
    with pytest.raises(TableFullError):
        _add(switch, 3)
    assert switch.stats.rejected_adds == 1
    assert switch.num_flows == 2



def test_rejected_add_counts_no_shifts():
    switch = _switch(capacity=2, unbounded_tail=False)
    _add(switch, 1, priority=30)
    _add(switch, 2, priority=20)
    assert switch.stats.total_shifts == 1
    before = switch.clock.now_ms
    with pytest.raises(TableFullError):
        _add(switch, 3, priority=10)
    # The rejection costs the base ADD time and shifts nothing.
    assert switch.stats.total_shifts == 1
    assert len(switch.shift_model) == 2
    assert switch.clock.now_ms - before == pytest.approx(COST.add_base_ms)


# -- data plane ------------------------------------------------------------------
def test_forward_fast_path_delay():
    switch = _switch()
    _add(switch, 1)
    delay = switch.forward_packet(PacketFields(ip_dst=1))
    assert delay == pytest.approx(0.5)
    assert switch.stats.packets_by_layer == [1, 0]


def test_forward_slow_path_after_overflow():
    switch = _switch(capacity=2)
    for i in range(4):
        _add(switch, i)
    delay = switch.forward_packet(PacketFields(ip_dst=3))
    assert delay == pytest.approx(3.0)
    assert switch.stats.packets_by_layer == [0, 1]


def test_forward_miss_goes_to_controller():
    switch = _switch()
    delay = switch.forward_packet(PacketFields(ip_dst=99))
    assert delay == pytest.approx(8.0)
    assert switch.stats.packets_to_controller == 1


def test_controller_action_punts_even_when_cached():
    switch = _switch()
    _add(switch, 1, actions=(ControllerAction(),))
    delay = switch.forward_packet(PacketFields(ip_dst=1))
    assert delay == pytest.approx(8.0)
    assert switch.stats.packets_to_controller == 1


def test_forwarding_updates_flow_attributes():
    switch = _switch()
    _add(switch, 1)
    switch.forward_packet(PacketFields(ip_dst=1))
    entry = switch.tables.lookup_exact(Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32)))
    assert entry.traffic_count == 1
    assert entry.last_used_at_ms >= 0


def test_layer_of_match_helper():
    switch = _switch(capacity=1)
    _add(switch, 1)
    _add(switch, 2)
    assert switch.layer_of_match(Match(eth_type=0x0800, ip_dst=IpPrefix(1, 32))) == 0
    assert switch.layer_of_match(Match(eth_type=0x0800, ip_dst=IpPrefix(2, 32))) == 1


def test_reset_rules_clears_state():
    switch = _switch()
    _add(switch, 1, priority=5)
    switch.reset_rules()
    assert switch.num_flows == 0
    assert len(switch.shift_model) == 0
    # Priority-group bookkeeping also resets: next add pays the group cost.
    before = switch.clock.now_ms
    _add(switch, 2, priority=5)
    assert switch.clock.now_ms - before == pytest.approx(1.5)


def test_jitter_perturbs_costs():
    cost = ControlCostModel(
        add_base_ms=1.0,
        shift_ms=0.0,
        priority_group_ms=0.0,
        mod_ms=0.3,
        del_ms=0.2,
        jitter_std_frac=0.1,
    )
    switch = SimulatedSwitch(
        name="jitter",
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(8.0),
        cost_model=cost,
        seed=5,
    )
    durations = []
    for i in range(20):
        before = switch.clock.now_ms
        _add(switch, i)
        durations.append(switch.clock.now_ms - before)
    assert len(set(durations)) > 1
    assert all(d >= 0 for d in durations)
