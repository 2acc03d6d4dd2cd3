"""Tests for same-command batching discounts."""

import pytest

from repro.baselines import RandomOrderScheduler
from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler, NetworkExecutor
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _switch(discount=0.5):
    return SimulatedSwitch(
        name="batch",
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=1.0,
            del_ms=1.0,
            batch_discount=discount,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def test_discount_validated():
    with pytest.raises(ValueError):
        ControlCostModel(
            add_base_ms=1, shift_ms=0, priority_group_ms=0, mod_ms=1, del_ms=1,
            batch_discount=0.0,
        )
    with pytest.raises(ValueError):
        ControlCostModel(
            add_base_ms=1, shift_ms=0, priority_group_ms=0, mod_ms=1, del_ms=1,
            batch_discount=1.5,
        )


def test_streak_costs_less_than_alternation():
    streaky = _switch()
    for i in range(4):
        streaky.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), 1))
    for i in range(4):
        streaky.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, _match(i), actions=())
        )
    streak_time = streaky.clock.now_ms

    alternating = _switch()
    for i in range(4):
        alternating.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), 1))
        alternating.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, _match(i), actions=())
        )
    assert streak_time < alternating.clock.now_ms


def test_first_op_of_each_streak_pays_full_price():
    switch = _switch(discount=0.5)
    switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(1), 1))
    assert switch.clock.now_ms == pytest.approx(1.0)
    switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(2), 1))
    assert switch.clock.now_ms == pytest.approx(1.5)
    switch.apply_flow_mod(FlowMod(FlowModCommand.MODIFY, _match(1), 1))
    assert switch.clock.now_ms == pytest.approx(2.5)  # streak broken


def test_unit_discount_is_noop():
    switch = _switch(discount=1.0)
    for i in range(3):
        switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), 1))
    assert switch.clock.now_ms == pytest.approx(3.0)


def test_reset_rules_resets_streak():
    switch = _switch(discount=0.5)
    switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(1), 1))
    switch.reset_rules()
    switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(2), 1))
    assert switch.clock.now_ms == pytest.approx(2.0)  # both full price


def test_tango_type_grouping_exploits_batching():
    """Grouping by command type creates streaks; random order breaks them."""

    def run(scheduler_factory, seed):
        switch = _switch(discount=0.5)
        switch.name = "sw"
        executor = NetworkExecutor({"sw": ControlChannel(switch, rtt=ConstantLatency(0.0))})
        dag = RequestDag()
        for i in range(30):
            dag.new_request("sw", FlowModCommand.ADD, _match(i), priority=100)
        for i in range(30):
            dag.new_request(
                "sw", FlowModCommand.MODIFY, _match(i), priority=100
            )
        return scheduler_factory(executor).schedule(dag).makespan_ms

    tango = run(lambda ex: BasicTangoScheduler(ex), seed=1)
    random_order = run(lambda ex: RandomOrderScheduler(ex, seed=3), seed=1)
    assert tango < random_order
