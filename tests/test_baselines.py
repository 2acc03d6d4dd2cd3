"""Tests for the Dionysus and naive baseline schedulers."""

from repro.baselines import DionysusScheduler, FifoOrderScheduler, RandomOrderScheduler
from repro.core.requests import RequestDag
from repro.core.scheduler import NetworkExecutor
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _switch(name, add=1.0):
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
            mod_ms=0.5,
            del_ms=0.25,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _executor(*names):
    return NetworkExecutor(
        {n: ControlChannel(_switch(n), rtt=ConstantLatency(0.0)) for n in names}
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def test_dionysus_completes_dag():
    executor = _executor("a", "b")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    dag.new_request("b", FlowModCommand.ADD, _match(2), after=[first])
    result = DionysusScheduler(executor).schedule(dag)
    assert result.total_requests == 2
    assert result.makespan_ms > 0


def test_dionysus_prioritises_critical_path():
    """The head of a long chain must be issued before independent requests."""
    executor = _executor("a")
    dag = RequestDag()
    for i in range(3):
        dag.new_request("a", FlowModCommand.ADD, _match(i))
    head = dag.new_request("a", FlowModCommand.ADD, _match(10))
    dag.new_request("a", FlowModCommand.ADD, _match(11), after=[head])
    result = DionysusScheduler(executor).schedule(dag)
    order = [r.request.request_id for r in result.records]
    assert order[0] == head.request_id


def test_dionysus_pipelines_dependents():
    executor = _executor("a", "b")
    dag = RequestDag()
    for i in range(4):
        parent = dag.new_request("a", FlowModCommand.ADD, _match(i))
        dag.new_request("b", FlowModCommand.ADD, _match(10 + i), after=[parent])
    result = DionysusScheduler(executor).schedule(dag)
    # 4 adds on each switch; with pipelining the makespan is well under
    # the serial 8ms.
    assert result.makespan_ms < 6.0


def test_dionysus_respects_dependencies():
    executor = _executor("a", "b")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    second = dag.new_request("b", FlowModCommand.ADD, _match(2), after=[first])
    result = DionysusScheduler(executor).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    assert (
        records[second.request_id].started_ms
        >= records[first.request_id].finished_ms
    )


def test_random_order_is_seed_deterministic():
    def run(seed):
        executor = _executor("a")
        dag = RequestDag()
        for i in range(8):
            dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i)
        result = RandomOrderScheduler(executor, seed=seed).schedule(dag)
        return [r.request.request_id for r in result.records]

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_fifo_order_preserves_creation_order():
    executor = _executor("a")
    dag = RequestDag()
    requests = [
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=9 - i)
        for i in range(5)
    ]
    result = FifoOrderScheduler(executor).schedule(dag)
    assert [r.request.request_id for r in result.records] == [
        r.request_id for r in requests
    ]


def test_baselines_and_tango_issue_same_requests():
    def dag_factory():
        dag = RequestDag()
        for i in range(6):
            dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i)
        return dag

    ids = set(r.request_id for r in dag_factory().requests)
    for scheduler_cls in (DionysusScheduler, FifoOrderScheduler):
        result = scheduler_cls(_executor("a")).schedule(dag_factory())
        assert set(r.request.request_id for r in result.records) == ids
