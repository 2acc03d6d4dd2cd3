"""Tests for the deadline-aware Tango scheduler."""

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    DeadlineAwareTangoScheduler,
    NetworkExecutor,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _switch(name="a", add=10.0):
    return SimulatedSwitch(
        name=name,
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=add,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=1.0,
            del_ms=1.0,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _executor():
    return NetworkExecutor({"a": ControlChannel(_switch(), rtt=ConstantLatency(0.0))})


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _scheduler(executor):
    return DeadlineAwareTangoScheduler(executor, estimate=lambda r: 10.0)


def test_deadline_request_jumps_the_queue():
    """A tight deadline late in pattern order is pulled to the front."""
    dag = RequestDag()
    for i in range(5):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    # Highest priority = last in ascending order, but tightest deadline.
    urgent = dag.new_request(
        "a", FlowModCommand.ADD, _match(99), priority=100, install_by_ms=15.0
    )
    result = _scheduler(_executor()).schedule(dag)
    assert result.records[0].request.request_id == urgent.request_id
    assert result.deadline_misses == 0


def test_basic_scheduler_would_miss_the_same_deadline():
    dag = RequestDag()
    for i in range(5):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    dag.new_request(
        "a", FlowModCommand.ADD, _match(99), priority=100, install_by_ms=15.0
    )
    result = BasicTangoScheduler(_executor()).schedule(dag)
    assert result.deadline_misses == 1


def test_relaxed_deadlines_keep_pattern_order():
    """Deadlines that pattern order already meets cause no reordering."""
    dag = RequestDag()
    requests = [
        dag.new_request(
            "a", FlowModCommand.ADD, _match(i), priority=i + 1, install_by_ms=1000.0
        )
        for i in range(4)
    ]
    result = _scheduler(_executor()).schedule(dag)
    issued = [r.request.request_id for r in result.records]
    assert issued == [r.request_id for r in requests]
    assert result.deadline_misses == 0


def test_multiple_urgent_requests_in_edf_order():
    dag = RequestDag()
    for i in range(4):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    later = dag.new_request(
        "a", FlowModCommand.ADD, _match(90), priority=90, install_by_ms=25.0
    )
    sooner = dag.new_request(
        "a", FlowModCommand.ADD, _match(91), priority=91, install_by_ms=12.0
    )
    result = _scheduler(_executor()).schedule(dag)
    issued = [r.request.request_id for r in result.records]
    assert issued[0] == sooner.request_id
    assert issued[1] == later.request_id


def test_impossible_deadline_still_counted_as_miss():
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(0), install_by_ms=0.001)
    result = _scheduler(_executor()).schedule(dag)
    assert result.deadline_misses == 1


def test_respects_dependencies_despite_urgency():
    dag = RequestDag()
    parent = dag.new_request("a", FlowModCommand.ADD, _match(0))
    child = dag.new_request(
        "a", FlowModCommand.ADD, _match(1), install_by_ms=5.0, after=[parent]
    )
    result = _scheduler(_executor()).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    assert records[child.request_id].started_ms >= records[parent.request_id].finished_ms
