"""Tests for the recursive prefix-tree lookahead (paper Section 6 ext.)."""

import pytest

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    NetworkExecutor,
    PrefixTangoScheduler,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.perf.workloads import fast_executor, unlock_groups_dag
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _switch(name, add):
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
            del_ms=0.5,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _executor():
    return NetworkExecutor(
        {
            "a": ControlChannel(_switch("a", add=5.0), rtt=ConstantLatency(0.0)),
            "b": ControlChannel(_switch("b", add=1.0), rtt=ConstantLatency(0.0)),
        }
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _unlock_dag():
    """One cheap blocker on A unlocks a long run on B; 9 slow peers on A."""
    dag = RequestDag()
    blocker = dag.new_request("a", FlowModCommand.ADD, _match(0), priority=1)
    for i in range(1, 10):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    for i in range(10):
        dag.new_request(
            "b", FlowModCommand.ADD, _match(100 + i), priority=i + 1, after=[blocker]
        )
    return dag, blocker


ESTIMATES = {"a": 5.0, "b": 1.0}


def _prefix_scheduler(depth=2):
    return PrefixTangoScheduler(
        _executor(),
        estimate=lambda r: ESTIMATES[r.location],
        lookahead_depth=depth,
    )


def test_lookahead_depth_validated():
    with pytest.raises(ValueError):
        _prefix_scheduler(depth=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_estimate_rejected(bad):
    # A NaN estimate used to pass the planner's `value < 0.0` check; every
    # prefix cost then compared false and the full batch went out silently.
    scheduler = PrefixTangoScheduler(fast_executor("a", "b"), estimate=lambda r: bad)
    with pytest.raises(ValueError, match="finite non-negative"):
        scheduler.schedule(unlock_groups_dag(20))


def test_lookahead_issues_unlocking_prefix_first():
    dag, blocker = _unlock_dag()
    result = _prefix_scheduler().schedule(dag)
    assert result.total_requests == 20
    assert result.records[0].request.request_id == blocker.request_id
    # The blocker was issued alone, then everything else.
    assert result.rounds >= 2


def test_lookahead_beats_greedy_batching_on_unlock_shape():
    dag, _ = _unlock_dag()
    prefix_result = _prefix_scheduler().schedule(dag)
    dag2, _ = _unlock_dag()
    basic_result = BasicTangoScheduler(_executor()).schedule(dag2)
    assert prefix_result.makespan_ms <= basic_result.makespan_ms


def test_plan_estimates_zero_for_completed_dag():
    dag, _ = _unlock_dag()
    scheduler = _prefix_scheduler()
    all_ids = frozenset(r.request_id for r in dag.requests)
    cost, cut = scheduler._plan(dag.simulation(all_ids), depth=2)
    assert cost == 0.0
    assert cut is None


def test_deeper_lookahead_never_estimates_worse():
    dag, _ = _unlock_dag()
    shallow = _prefix_scheduler(depth=1)
    deep = _prefix_scheduler(depth=3)
    cost_shallow, _ = shallow._plan(dag.simulation(), depth=1)
    cost_deep, _ = deep._plan(dag.simulation(), depth=3)
    assert cost_deep <= cost_shallow + 1e-9


def test_plan_simulation_leaves_cursor_unchanged():
    """_plan explores by complete/undo; the cursor must come back clean."""
    dag, _ = _unlock_dag()
    scheduler = _prefix_scheduler()
    sim = dag.simulation()
    before = sim.ready_ids()
    scheduler._plan(sim, depth=3)
    assert sim.ready_ids() == before


def test_flat_dag_issues_everything_in_one_round():
    dag = RequestDag()
    for i in range(6):
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
    result = _prefix_scheduler().schedule(dag)
    assert result.rounds == 1
    assert result.total_requests == 6
