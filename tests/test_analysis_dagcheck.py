"""Request-DAG static verification (repro.analysis.dagcheck)."""

import pytest

from repro.analysis import DiagnosticError, analyze_dag, check_dag
from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    NetworkExecutor,
)
from repro.openflow.actions import OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import VENDOR_PROFILES


def _match(index):
    return Match(ip_dst=IpPrefix(index << 8, 24))


def _linear_dag(n=3, location="s1", deadlines=None):
    dag = RequestDag()
    previous = []
    for index in range(n):
        request = dag.new_request(
            location,
            FlowModCommand.ADD,
            _match(index),
            priority=index + 1,
            install_by_ms=None if deadlines is None else deadlines[index],
            after=previous,
        )
        previous = [request]
    return dag


def _force_cycle(dag):
    requests = dag.requests
    dag.add_dependency(requests[-1], requests[0], check_cycle=False)


def test_clean_dag_produces_no_diagnostics():
    report = check_dag(_linear_dag())
    assert len(report) == 0


def test_cycle_is_tng010_error():
    dag = _linear_dag()
    _force_cycle(dag)
    report = check_dag(dag)
    assert [d.code for d in report] == ["TNG010"]
    assert report.has_errors


def test_orphan_barrier_delete_is_tng011_warning():
    dag = RequestDag()
    barrier = dag.new_request("s1", FlowModCommand.DELETE, _match(0), priority=7)
    dag.new_request("s1", FlowModCommand.ADD, _match(1), priority=1, after=[barrier])
    report = check_dag(dag)
    assert [d.code for d in report] == ["TNG011"]
    assert not report.has_errors


def test_barrier_delete_with_matching_add_is_clean():
    dag = RequestDag()
    add = dag.new_request("s1", FlowModCommand.ADD, _match(0), priority=7)
    barrier = dag.new_request(
        "s1", FlowModCommand.DELETE, _match(0), priority=7, after=[add]
    )
    dag.new_request("s1", FlowModCommand.ADD, _match(1), priority=1, after=[barrier])
    assert len(check_dag(dag)) == 0


def test_barrier_delete_of_existing_rule_is_clean():
    dag = RequestDag()
    barrier = dag.new_request("s1", FlowModCommand.DELETE, _match(0), priority=7)
    dag.new_request("s1", FlowModCommand.ADD, _match(1), priority=1, after=[barrier])
    report = check_dag(dag, existing=[("s1", _match(0), 7)])
    assert len(report) == 0


def test_chain_deadline_infeasibility_is_tng012_error():
    # Three chained 10 ms requests; the last must land by 15 ms.
    dag = _linear_dag(n=3, deadlines=[None, None, 15.0])
    report = check_dag(dag, estimate=lambda request: 10.0)
    assert "TNG012" in [d.code for d in report]
    assert report.has_errors


def test_per_switch_edf_infeasibility_is_tng012_error():
    # Two independent requests on one switch, both due by 15 ms, 10 ms each:
    # each chain bound holds (10 <= 15) but 20 ms of serial work is due by 15.
    dag = RequestDag()
    for index in range(2):
        dag.new_request(
            "s1",
            FlowModCommand.ADD,
            _match(index),
            priority=index + 1,
            install_by_ms=15.0,
        )
    report = check_dag(dag, estimate=lambda request: 10.0)
    assert [d.code for d in report] == ["TNG012"]


def test_feasible_deadlines_are_clean():
    dag = _linear_dag(n=3, deadlines=[20.0, 40.0, 60.0])
    assert len(check_dag(dag, estimate=lambda request: 10.0)) == 0


def test_guard_time_violation_is_tng013_warning():
    dag = RequestDag()
    first = dag.new_request("s1", FlowModCommand.ADD, _match(0), priority=1)
    dag.new_request("s2", FlowModCommand.ADD, _match(1), priority=2, after=[first])
    estimates = {"s1": 2.0, "s2": 20.0}
    report = check_dag(
        dag, estimate=lambda request: estimates[request.location], guard_ms=5.0
    )
    assert [d.code for d in report] == ["TNG013"]
    assert not report.has_errors


def test_same_switch_dependency_never_violates_guard():
    dag = _linear_dag(n=2)
    report = check_dag(dag, estimate=lambda request: 100.0, guard_ms=1.0)
    assert len(report) == 0


def test_precheck_raises_on_cyclic_dag():
    switch = VENDOR_PROFILES["switch2"].build(seed=3)
    executor = NetworkExecutor({switch.name: ControlChannel(switch)})
    dag = _linear_dag(n=2, location=switch.name)
    _force_cycle(dag)
    scheduler = BasicTangoScheduler(executor)
    with pytest.raises(DiagnosticError) as excinfo:
        scheduler.precheck(dag)
    assert any(d.code == "TNG010" for d in excinfo.value.report)
    assert switch.stats.adds == 0  # nothing was issued


def test_precheck_passes_clean_dag_then_schedule_runs():
    switch = VENDOR_PROFILES["switch2"].build(seed=3)
    executor = NetworkExecutor({switch.name: ControlChannel(switch)})
    dag = _linear_dag(n=3, location=switch.name)
    scheduler = BasicTangoScheduler(executor)
    assert len(scheduler.precheck(dag)) == 0
    assert scheduler.schedule(dag).total_requests == 3


def test_concurrent_precheck_checks_deadlines():
    switch = VENDOR_PROFILES["switch2"].build(seed=3)
    executor = NetworkExecutor({switch.name: ControlChannel(switch)})
    dag = RequestDag()
    previous = []
    for index in range(3):
        request = dag.new_request(
            switch.name,
            FlowModCommand.ADD,
            _match(index),
            priority=index + 1,
            install_by_ms=0.001 if index == 2 else None,
            after=previous,
        )
        previous = [request]
    scheduler = ConcurrentTangoScheduler(executor, estimate=lambda request: 10.0)
    with pytest.raises(DiagnosticError) as excinfo:
        scheduler.precheck(dag)
    assert any(d.code == "TNG012" for d in excinfo.value.report)


def test_analyze_dag_also_runs_rule_checks_per_switch():
    dag = RequestDag()
    wide = Match(ip_dst=IpPrefix(0x0A000000, 8))
    narrow = Match(ip_dst=IpPrefix(0x0A010000, 16))
    dag.new_request("s1", FlowModCommand.ADD, wide, priority=10)
    dag.new_request("s1", FlowModCommand.ADD, narrow, priority=1)
    report = analyze_dag(dag)
    assert [d.code for d in report] == ["TNG002"]


def test_analyze_dag_with_actions_kwarg_smoke():
    dag = RequestDag()
    dag.new_request(
        "s1",
        FlowModCommand.ADD,
        _match(0),
        priority=1,
        actions=(OutputAction(port=2),),
    )
    assert len(analyze_dag(dag)) == 0
