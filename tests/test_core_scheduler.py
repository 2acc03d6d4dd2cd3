"""Tests for the Tango schedulers and the network executor."""

import pytest

from repro.core.patterns import (
    TangoPatternDatabase,
    default_rewrite_patterns,
    make_del_mod_add_pattern,
    make_type_only_pattern,
)
from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    NetworkExecutor,
    PrefixTangoScheduler,
    count_commands,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _switch(name, add=1.0, mod=0.5, dele=0.25, shift=0.0):
    return SimulatedSwitch(
        name=name,
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=add,
            shift_ms=shift,
            priority_group_ms=0.0,
            mod_ms=mod,
            del_ms=dele,
            jitter_std_frac=0.0,
        ),
        seed=1,
    )


def _executor(*names, **kwargs):
    return NetworkExecutor(
        {name: ControlChannel(_switch(name, **kwargs), rtt=ConstantLatency(0.0)) for name in names}
    )


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


# -- executor ---------------------------------------------------------------------
def test_executor_requires_channels():
    with pytest.raises(ValueError):
        NetworkExecutor({})


def test_executor_aligns_clocks():
    a = _switch("a")
    b = _switch("b")
    a.clock.advance(10.0)
    executor = NetworkExecutor(
        {"a": ControlChannel(a), "b": ControlChannel(b)}
    )
    assert a.clock.now_ms == b.clock.now_ms == executor.epoch_ms


def test_executor_issue_honours_not_before():
    executor = _executor("a")
    dag = RequestDag()
    request = dag.new_request("a", FlowModCommand.ADD, _match(1))
    record = executor.issue(request, not_before_ms=50.0)
    assert record.started_ms == 50.0
    assert record.finished_ms == pytest.approx(51.0)


def test_executor_unknown_switch():
    executor = _executor("a")
    dag = RequestDag()
    request = dag.new_request("nope", FlowModCommand.ADD, _match(1))
    with pytest.raises(KeyError):
        executor.issue(request)


# -- pattern oracle / ordering ---------------------------------------------------------
def test_count_commands():
    dag = RequestDag()
    requests = [
        dag.new_request("a", FlowModCommand.ADD, _match(1)),
        dag.new_request("a", FlowModCommand.ADD, _match(2)),
        dag.new_request("a", FlowModCommand.DELETE, _match(3)),
    ]
    counts = count_commands(requests)
    assert counts[FlowModCommand.ADD] == 2
    assert counts[FlowModCommand.DELETE] == 1


def test_pattern_scores_follow_paper_example():
    """Figure 7 walkthrough: 1 DEL, 1 MOD, 2 ADDs scores -91 / -171."""
    ascending, descending = default_rewrite_patterns()
    counts = {
        FlowModCommand.DELETE: 1,
        FlowModCommand.MODIFY: 1,
        FlowModCommand.ADD: 2,
    }
    assert ascending.score_counts(counts) == -91
    assert descending.score_counts(counts) == -171


def test_basic_scheduler_orders_del_mod_add_ascending():
    executor = _executor("a")
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(1), priority=5)
    dag.new_request("a", FlowModCommand.DELETE, _match(2))
    dag.new_request("a", FlowModCommand.ADD, _match(3), priority=2)
    dag.new_request("a", FlowModCommand.MODIFY, _match(4))
    result = BasicTangoScheduler(executor).schedule(dag)
    issued = [(r.request.command, r.request.priority) for r in result.records]
    assert issued == [
        (FlowModCommand.DELETE, 0),
        (FlowModCommand.MODIFY, 0),
        (FlowModCommand.ADD, 2),
        (FlowModCommand.ADD, 5),
    ]
    assert result.pattern_choices == ["DEL MOD ASCEND_ADD"]


def test_type_only_pattern_preserves_arrival_order_of_adds():
    executor = _executor("a")
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(1), priority=5)
    dag.new_request("a", FlowModCommand.ADD, _match(2), priority=2)
    result = BasicTangoScheduler(
        executor, patterns=[make_type_only_pattern()]
    ).schedule(dag)
    priorities = [r.request.priority for r in result.records]
    assert priorities == [5, 2]


def test_scheduler_respects_dependencies():
    executor = _executor("a", "b")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    second = dag.new_request("b", FlowModCommand.ADD, _match(2), after=[first])
    result = BasicTangoScheduler(executor).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    assert records[second.request_id].started_ms >= records[first.request_id].finished_ms


def test_scheduler_parallelises_across_switches():
    executor = _executor("a", "b")
    dag = RequestDag()
    for i in range(10):
        dag.new_request("a" if i % 2 else "b", FlowModCommand.ADD, _match(i))
    result = BasicTangoScheduler(executor).schedule(dag)
    # 5 adds per switch at 1ms each, concurrent -> ~5ms, not ~10ms.
    assert result.makespan_ms == pytest.approx(5.0)


def test_makespan_counts_from_epoch():
    executor = _executor("a")
    executor.channels["a"].clock.advance(100.0)
    executor.reset_epoch()
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(1))
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.makespan_ms == pytest.approx(1.0)


def test_deadline_misses_counted():
    executor = _executor("a")
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(1), install_by_ms=0.5)
    dag.new_request("a", FlowModCommand.ADD, _match(2), install_by_ms=100.0)
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.deadline_misses == 1


def test_scheduler_runs_multiple_rounds():
    executor = _executor("a")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    dag.new_request("a", FlowModCommand.ADD, _match(2), after=[first])
    result = BasicTangoScheduler(executor).schedule(dag)
    assert result.rounds == 2
    assert result.total_requests == 2


def test_ascending_pattern_beats_descending_on_shift_switch():
    def run(patterns):
        executor = _executor("a", shift=0.1)
        dag = RequestDag()
        for i in range(50):
            dag.new_request("a", FlowModCommand.ADD, _match(i), priority=i + 1)
        return BasicTangoScheduler(executor, patterns=patterns).schedule(dag)

    ascending = run([make_del_mod_add_pattern("asc", 20.0, ascending_adds=True)])
    descending = run([make_del_mod_add_pattern("desc", 40.0, ascending_adds=False)])
    assert descending.makespan_ms > 2 * ascending.makespan_ms


# -- prefix scheduler --------------------------------------------------------------
def test_prefix_scheduler_completes_dag():
    executor = _executor("a", "b")
    dag = RequestDag()
    blocker = dag.new_request("a", FlowModCommand.ADD, _match(0))
    for i in range(1, 6):
        dag.new_request("a", FlowModCommand.ADD, _match(i))
    dag.new_request("b", FlowModCommand.ADD, _match(10), after=[blocker])
    result = PrefixTangoScheduler(executor, estimate=lambda r: 1.0).schedule(dag)
    assert result.total_requests == 7


def test_prefix_scheduler_matches_basic_when_no_unlocks():
    dag_a, dag_b = RequestDag(), RequestDag()
    for i in range(6):
        dag_a.new_request("a", FlowModCommand.ADD, _match(i))
        dag_b.new_request("a", FlowModCommand.ADD, _match(i))
    basic = BasicTangoScheduler(_executor("a")).schedule(dag_a)
    prefix = PrefixTangoScheduler(_executor("a"), estimate=lambda r: 1.0).schedule(dag_b)
    assert prefix.makespan_ms == pytest.approx(basic.makespan_ms)


# -- concurrent scheduler --------------------------------------------------------------
def test_concurrent_scheduler_completes_and_orders():
    executor = _executor("a", "b")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    dag.new_request("b", FlowModCommand.ADD, _match(2), after=[first])
    result = ConcurrentTangoScheduler(
        executor, estimate=lambda r: 1.0, guard_ms=0.0
    ).schedule(dag)
    assert result.total_requests == 2


@pytest.mark.parametrize("guard_ms", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_concurrent_rejects_non_finite_or_negative_guard(guard_ms):
    """A NaN guard made every comparison false, so the dependent request
    started as soon as its switch was free -- before its dependency."""
    with pytest.raises(ValueError, match="guard_ms"):
        ConcurrentTangoScheduler(
            _executor("a", "b"), estimate=lambda r: 0.01, guard_ms=guard_ms
        )


def test_concurrent_zero_guard_waits_for_the_dependency():
    executor = _executor("a", "b")
    dag = RequestDag()
    first = dag.new_request("a", FlowModCommand.ADD, _match(1))
    then = dag.new_request("b", FlowModCommand.ADD, _match(2), after=[first])
    result = ConcurrentTangoScheduler(
        executor, estimate=lambda r: 0.01, guard_ms=0.0
    ).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    assert records[then.request_id].finished_ms >= records[first.request_id].finished_ms


def test_concurrent_overlaps_dependent_requests():
    """A slow dependent request starts before its fast parent finishes."""
    executor = NetworkExecutor(
        {
            "fast": ControlChannel(_switch("fast", add=1.0), rtt=ConstantLatency(0.0)),
            "slow": ControlChannel(_switch("slow", add=50.0), rtt=ConstantLatency(0.0)),
        }
    )
    dag = RequestDag()
    parent = dag.new_request("fast", FlowModCommand.ADD, _match(1))
    child = dag.new_request("slow", FlowModCommand.ADD, _match(2), after=[parent])

    estimates = {parent.request_id: 1.0, child.request_id: 50.0}
    result = ConcurrentTangoScheduler(
        executor,
        estimate=lambda r: estimates[r.request_id],
        guard_ms=5.0,
    ).schedule(dag)
    records = {r.request.request_id: r for r in result.records}
    # The child starts while the parent's estimated finish is still ahead.
    assert records[child.request_id].started_ms < records[parent.request_id].finished_ms + 5.0
    # Guard: the child's finish still trails the parent's by >= guard.
    assert (
        records[child.request_id].finished_ms
        >= records[parent.request_id].finished_ms + 5.0 - 1e-6
    )


def test_concurrent_guard_anchors_at_epoch_on_reused_executor():
    """Regression: dep-free requests must anchor guard math at the
    executor's epoch.  With the old ``default=0.0`` a reused executor
    (epoch > 0) silently weakened the guard to a no-op."""
    executor = _executor("a", add=1.0)

    # First schedule advances the switch clock, so the next reset_epoch
    # leaves a strictly positive epoch.
    warmup = RequestDag()
    for i in range(3):
        warmup.new_request("a", FlowModCommand.ADD, _match(100 + i))
    scheduler = ConcurrentTangoScheduler(
        executor, estimate=lambda r: 1.0, guard_ms=50.0
    )
    scheduler.schedule(warmup)

    dag = RequestDag()
    dag.new_request("a", FlowModCommand.ADD, _match(1))
    result = scheduler.schedule(dag)
    # schedule() re-aligned the epoch to the advanced switch clock.
    assert executor.epoch_ms > 0.0
    record = result.records[0]
    # guard_ms=50, estimate=1: the request may not start before
    # epoch + 50 - 1.  The old bug started it at the switch clock.
    assert record.started_ms >= executor.epoch_ms + 50.0 - 1.0 - 1e-6
    # makespan is still measured from the (new) epoch.
    assert result.makespan_ms == pytest.approx(
        record.finished_ms - executor.epoch_ms
    )


def test_count_commands_is_counter_equivalent_to_manual_tally():
    """count_commands now returns a Counter; scoring must be unchanged."""
    dag = RequestDag()
    requests = [
        dag.new_request("a", FlowModCommand.DELETE, _match(1)),
        dag.new_request("a", FlowModCommand.ADD, _match(3)),
        dag.new_request("a", FlowModCommand.ADD, _match(4)),
    ]
    counts = count_commands(requests)
    manual = {}
    for request in requests:
        manual[request.command] = manual.get(request.command, 0) + 1
    assert dict(counts) == manual
    # Missing commands read as 0, like dict.get in the patterns' scoring.
    assert counts[FlowModCommand.MODIFY] == 0
    ascending, descending = default_rewrite_patterns()
    assert ascending.score_counts(counts) == ascending.score_counts(manual)
    assert descending.score_counts(counts) == descending.score_counts(manual)


def test_ordering_oracle_memoizes_per_batch():
    """Re-choosing the same batch hits the cache and returns a private
    copy (mutating the result must not corrupt later answers)."""
    executor = _executor("a")
    scheduler = BasicTangoScheduler(executor)
    dag = RequestDag()
    requests = [
        dag.new_request("a", FlowModCommand.ADD, _match(i), priority=10 - i)
        for i in range(5)
    ]
    oracle = scheduler.oracle
    pattern_a, ordered_a = oracle.choose(requests)
    assert oracle.cache_misses == 1 and oracle.cache_hits == 0
    ordered_a.reverse()  # caller-side mutation
    pattern_b, ordered_b = oracle.choose(requests)
    assert oracle.cache_hits == 1
    assert pattern_b is pattern_a
    assert ordered_b == list(reversed(ordered_a))  # cache unharmed
    # A different batch is a miss, not a stale hit.
    oracle.choose(requests[:3])
    assert oracle.cache_misses == 2


def test_ordering_oracle_cache_hit_returns_callers_requests_across_dags():
    """Request ids restart at 0 in every RequestDag, so a scheduler reused
    across DAGs hits the oracle cache with colliding keys.  The cached
    permutation must be re-applied to the *caller's* requests -- never
    replay request objects from the previous DAG."""
    executor = _executor("a", "b")
    scheduler = BasicTangoScheduler(executor)

    dag1 = RequestDag()
    for i in range(3):
        dag1.new_request("a", FlowModCommand.ADD, _match(i), priority=i)
    scheduler.schedule(dag1)

    # Same (id, command, priority) triples, different switch and matches.
    dag2 = RequestDag()
    expected = [
        dag2.new_request("b", FlowModCommand.ADD, _match(100 + i), priority=i)
        for i in range(3)
    ]
    result = scheduler.schedule(dag2)

    assert scheduler.oracle.cache_hits >= 1  # the collision actually occurred
    issued = [record.request for record in result.records]
    assert sorted(issued, key=lambda r: r.request_id) == expected
    for request in issued:
        assert request.location == "b"
    assert dag2.is_done()


def test_pattern_database_registration():
    db = TangoPatternDatabase()
    assert len(db.rewrite_patterns) == 2
    db.register_rewrite(make_type_only_pattern())
    assert len(db.rewrite_patterns) == 3
    assert db.get_rewrite("DEL MOD ASCEND_ADD") is not None
