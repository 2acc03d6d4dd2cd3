"""Scalability guard tests.

These don't measure wall time (flaky); they bound the *algorithmic*
footprint of the hot paths so an accidental O(n^2) regression (e.g. a
per-edge cycle check in bulk DAG construction) fails loudly via the
simulated-operation counters instead of silently slowing the benches.
"""

import time

from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler, NetworkExecutor
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.switches.profiles import SWITCH_1
from repro.tables.policies import FIFO, CachePolicy
from repro.tables.stack import TableLayer
from repro.tables.tcam import PriorityShiftModel
from repro.workloads.classbench import classbench_preset


def _fast_switch(name="sw"):
    return SimulatedSwitch(
        name=name,
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=0.1,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.1,
            del_ms=0.1,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def test_bulk_dag_construction_with_many_edges_is_fast():
    """4000 requests with 4000 chained edges must build in well under a
    second (the per-edge acyclicity check would take minutes)."""
    start = time.time()
    dag = RequestDag()
    previous = None
    for i in range(4000):
        request = dag.new_request("sw", FlowModCommand.ADD, _match(i), priority=1)
        if previous is not None:
            dag.add_dependency(previous, request, check_cycle=False)
        previous = request
    dag.validate_acyclic()
    assert time.time() - start < 2.0
    assert dag.depth() == 4000


def test_scheduler_handles_thousands_of_flat_requests():
    dag = RequestDag()
    for i in range(3000):
        dag.new_request("sw", FlowModCommand.ADD, _match(i), priority=i + 1)
    executor = NetworkExecutor({"sw": ControlChannel(_fast_switch())})
    start = time.time()
    result = BasicTangoScheduler(executor).schedule(dag)
    assert time.time() - start < 10.0
    assert result.total_requests == 3000
    assert result.rounds == 1


def test_switch_absorbs_tens_of_thousands_of_rules():
    switch = _fast_switch()
    start = time.time()
    for i in range(20_000):
        switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), priority=100))
    assert switch.num_flows == 20_000
    assert time.time() - start < 10.0


# -- operation-count guards ---------------------------------------------------
# Deterministic counters, not wall time: an accidental return to the
# per-round O(V*E) ready rescan fails these exactly, on any machine.


def _chain(n):
    dag = RequestDag()
    previous = None
    for i in range(n):
        request = dag.new_request("sw", FlowModCommand.ADD, _match(i), priority=i + 1)
        if previous is not None:
            dag.add_dependency(previous, request, check_cycle=False)
        previous = request
    dag.validate_acyclic()
    return dag


def test_chain_schedule_does_linear_dag_work():
    """Scheduling a 2000-request chain must touch O(V + E) DAG state:
    each edge visited once by mark_done, each request yielded once."""
    n = 2000
    dag = _chain(n)
    dag.ops.clear()
    executor = NetworkExecutor({"sw": ControlChannel(_fast_switch())})
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.total_requests == n
    assert result.rounds == n
    assert dag.ops.edge_visits == n - 1  # one visit per dependency edge
    assert dag.ops.ready_yields == n  # one yield per request
    assert dag.ops.total() <= 2 * (n + (n - 1))


def test_serve_shaped_batch_cycle_check_is_one_visit_per_edge():
    """A serve install batch (D deletes, then A adds each after every
    delete) must cost at most D*A cycle-check visits: each new edge
    points at a brand-new sink, so its search stops at that sink."""
    deletes_n, adds_n = 16, 16
    dag = RequestDag()
    deletes = [
        dag.new_request("sw", FlowModCommand.DELETE, _match(i), priority=1)
        for i in range(deletes_n)
    ]
    for i in range(adds_n):
        dag.new_request(
            "sw", FlowModCommand.ADD, _match(deletes_n + i), priority=1, after=deletes
        )
    assert len(dag.edge_ids()) == deletes_n * adds_n
    assert dag.ops.cycle_visits <= deletes_n * adds_n
    assert dag.ops.total() == 0  # construction stays out of the op gate


def test_checked_chain_construction_is_linear():
    """A 4000-request chain built edge by edge with the cycle check on
    must stay O(V): the whole-graph check made this O(V^2)."""
    n = 4000
    dag = RequestDag()
    previous = []
    for i in range(n):
        previous = [dag.new_request("sw", FlowModCommand.ADD, _match(i), after=previous)]
    assert dag.ops.cycle_visits <= n - 1
    assert dag.depth() == n


def test_prefix_lookahead_op_growth_is_subquadratic():
    """The incremental tail-cost planner must keep the unlock workload's
    op growth near-linear: doubling n from 1000 to 2000 may grow ops by
    at most 2.5x (the retired recursive planner's ratio was ~3.9x)."""
    from repro.perf.harness import bench_prefix_lookahead

    small = bench_prefix_lookahead(1000)
    large = bench_prefix_lookahead(2000)
    assert small.ops > 0
    assert large.ops / small.ops < 2.5


def test_prefix_planning_never_drives_the_cursor(monkeypatch):
    """Hypothetical completions stay inside the planner: scheduling the
    unlock workload never calls the cursor's complete/undo/ready_ids
    (only commit, once per issued batch)."""
    from repro.core.requests import ReadySimulation
    from repro.core.scheduler import PrefixTangoScheduler
    from repro.perf.workloads import UNLOCK_ESTIMATES, fast_executor, unlock_groups_dag

    calls = {"complete": 0, "undo": 0, "ready_ids": 0, "commit": 0}
    for name in calls:
        original = getattr(ReadySimulation, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ReadySimulation, name, counted)
    result = PrefixTangoScheduler(
        fast_executor("a", "b"),
        estimate=lambda request: UNLOCK_ESTIMATES[request.location],
        lookahead_depth=2,
    ).schedule(unlock_groups_dag(1000))
    assert result.total_requests == 1000
    assert (calls["complete"], calls["undo"], calls["ready_ids"]) == (0, 0, 0)
    assert calls["commit"] == result.rounds


def test_descending_install_accounting_is_subquadratic():
    """5000 descending-priority adds: every add shifts all residents.

    The sorted list's element moves are pinned exactly: n(n+1)/2, each
    insert one C-level ``memmove`` (no Python-level work per moved entry).
    """
    n = 5000
    model = PriorityShiftModel()
    total = 0
    for priority in range(n, 0, -1):
        total += model.record_add(priority)
    assert total == n * (n - 1) // 2  # every add shifted all residents
    assert model.accounting_ops == n * (n + 1) // 2 == 12_502_500


# -- table-stack rescoring guards ----------------------------------------------
# A probe packet under FIFO cannot change any entry's rank, so it must not
# re-sort the ranking; a removal reuses the filed rank key.


def _counting_score(monkeypatch):
    calls = [0]
    score = CachePolicy.score

    def counted(self, entry):
        calls[0] += 1
        return score(self, entry)

    monkeypatch.setattr(CachePolicy, "score", counted)
    return calls


def test_fifo_probes_rescore_once_and_leave_ranking_alone(monkeypatch):
    switch = SWITCH_1.build(seed=1)
    assert switch.tables.policy is FIFO
    for i in range(4096):
        switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), priority=100))
    assert switch.tables.layer_occupancy() == [4096, 0]
    ranked = list(switch.tables._ranked)
    calls = _counting_score(monkeypatch)
    probes = 2000
    for i in range(probes):
        switch.forward_packet(PacketFields(ip_dst=(i * 7) % 4096))
    assert calls[0] <= probes
    assert len(switch.tables._ranked) == len(ranked)
    assert all(now is before for now, before in zip(switch.tables._ranked, ranked))
    assert not switch.tables._boundaries_dirty


def test_remove_costs_no_score_calls(monkeypatch):
    switch = SWITCH_1.build(seed=1)
    for i in range(4096):
        switch.apply_flow_mod(FlowMod(FlowModCommand.ADD, _match(i), priority=100))
    calls = _counting_score(monkeypatch)
    for i in range(0, 4096, 2):
        switch.apply_flow_mod(FlowMod(FlowModCommand.DELETE, _match(i)))
    assert calls[0] == 0
    assert switch.num_flows == 2048


def test_classbench_dag_overlap_tests_scale_with_rules(monkeypatch):
    """Building ClassBench 2's dependency DAG may test only overlap-index
    candidates: at most 10 overlap tests per rule, where comparing every
    pair made 488,566."""
    calls = [0]
    original = Match.overlaps

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Match, "overlaps", counting)
    ruleset = classbench_preset(2)
    assert calls[0] <= 10 * len(ruleset.rules)
