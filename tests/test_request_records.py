"""One immutable object per rule and per arrival on the serve path.

A request carries the :class:`FlowMod` built when it is made, and the
executor sends that very object.  Requests, stream arrivals and planned
cache ops are named tuples: immutable, hashable and equal by value.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core.requests import RequestDag, SwitchRequest
from repro.core.scheduler import BasicTangoScheduler, NetworkExecutor
from repro.openflow.actions import OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.serve.cache import PlannedOp
from repro.serve.stream import FlowArrival, FlowRequestStream, StreamConfig, flow_match
from repro.sim.clock import VirtualClock
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer

ADD = FlowModCommand.ADD


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _switch():
    return SimulatedSwitch(
        name="s1",
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.5,
            del_ms=0.25,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _valid_dag(invalid=None):
    """Three chained adds, with ``invalid`` keywords tried after the first."""
    dag = RequestDag()
    first = dag.new_request("s1", ADD, _match(0), priority=3)
    if invalid is not None:
        with pytest.raises(ValueError):
            dag.new_request("s1", ADD, _match(9), after=[first], **invalid)
    second = dag.new_request("s1", ADD, _match(1), priority=2, after=[first])
    dag.new_request("s1", ADD, _match(2), priority=1, after=[second])
    return dag


def _schedule(dag):
    switch = _switch()
    executor = NetworkExecutor({"s1": ControlChannel(switch, rtt=ConstantLatency(0.0))})
    result = BasicTangoScheduler(executor).schedule(dag)
    records = [
        (r.request.request_id, r.started_ms, r.finished_ms) for r in result.records
    ]
    return records, len(switch.tables)


@pytest.mark.parametrize(
    "invalid",
    [{"priority": -1}, {"actions": ()}],
    ids=["negative-priority", "add-without-actions"],
)
def test_invalid_request_is_rejected_before_anything_is_sent(invalid):
    dag = RequestDag()
    a = dag.new_request("s1", ADD, _match(0))
    with pytest.raises(ValueError):
        dag.new_request("s1", ADD, _match(1), after=[a], **invalid)
    assert len(dag) == 1
    assert dag.edge_ids() == []
    assert dag.new_request("s1", ADD, _match(2)).request_id == 1
    # The rejected call leaves a scheduled DAG of valid requests as it
    # would be without it: every rule installed, at the same times.
    assert _schedule(_valid_dag(invalid)) == _schedule(_valid_dag())
    assert _schedule(_valid_dag())[1] == 3


def test_request_carries_one_flow_mod():
    dag = RequestDag()
    request = dag.new_request("s1", ADD, _match(1), priority=7, install_by_ms=50.0)
    assert request.mod == FlowMod(ADD, _match(1), 7, (OutputAction(port=1),), 50.0)
    fields = (request.command, request.match, request.priority, request.install_by_ms)
    assert fields == (ADD, _match(1), 7, 50.0)


def test_flow_mod_is_slotted_frozen_and_copies_by_value():
    mod = FlowMod(ADD, _match(1), 7, install_by_ms=50.0)
    assert not hasattr(mod, "__dict__")
    with pytest.raises(AttributeError):
        mod.priority = 1
    for clone in (copy.copy(mod), copy.deepcopy(mod), pickle.loads(pickle.dumps(mod))):
        assert clone == mod and hash(clone) == hash(mod)
    assert dataclasses.replace(mod, priority=3) == FlowMod(ADD, _match(1), 3, install_by_ms=50.0)
    with pytest.raises(ValueError):
        dataclasses.replace(mod, table_id=-1)


class _RecordingChannel:
    """The channel surface :meth:`NetworkExecutor.issue` uses, recording sends."""

    def __init__(self):
        self.clock = VirtualClock()
        self.sent = []

    def send_flow_mod(self, mod):
        self.sent.append(mod)
        self.clock.advance(1.0)


def test_executor_sends_the_request_flow_mod_itself():
    channel = _RecordingChannel()
    executor = NetworkExecutor({"s1": channel})
    request = RequestDag().new_request("s1", ADD, _match(1))
    record = executor.issue(request)
    assert len(channel.sent) == 1
    assert channel.sent[0] is request.mod
    assert record.request is request
    assert (record.started_ms, record.finished_ms) == (0.0, 1.0)


def _records():
    """Two equal, separately built values of each record type."""
    mod = FlowMod(ADD, _match(1), 5)
    arrival = next(iter(FlowRequestStream(StreamConfig(arrivals=1, seed=3))))
    return [
        (
            SwitchRequest(4, "s1", mod),
            SwitchRequest(4, "s1", FlowMod(ADD, _match(1), 5)),
            "location",
        ),
        (
            arrival,
            FlowArrival(
                arrival.index,
                arrival.t_ms,
                arrival.tenant,
                arrival.destination,
                arrival.priority,
                flow_match(arrival.tenant, arrival.destination),
            ),
            "priority",
        ),
        (
            PlannedOp(ADD, _match(1), 5, "install"),
            PlannedOp(ADD, _match(1), 5, "install", (OutputAction(port=1),)),
            "reason",
        ),
    ]


@pytest.mark.parametrize(
    "one, other, field", _records(), ids=["SwitchRequest", "FlowArrival", "PlannedOp"]
)
def test_records_are_immutable_hashable_and_equal_by_value(one, other, field):
    assert one is not other
    assert one == other
    assert hash(one) == hash(other)
    assert len({one, other}) == 1
    with pytest.raises(AttributeError):
        setattr(one, field, getattr(other, field))
    with pytest.raises(AttributeError):
        one.extra = 1
    changed = one._replace(**{field: "changed"})
    assert changed != one
    assert getattr(one, field) == getattr(other, field)


def test_arrival_flow_key_is_tenant_and_destination():
    arrival = FlowArrival(0, 1.5, 3, 17, 4, flow_match(3, 17))
    assert arrival.flow_key == (3, 17)
