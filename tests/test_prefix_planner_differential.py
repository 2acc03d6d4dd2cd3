"""Differential tests: incremental TailCostPlanner vs the retired planner.

The optimized prefix scheduler must be *indistinguishable* from the
retired recursive planner it replaced -- same ``(cost, cut)`` planning
decisions and byte-identical schedules (issue order, per-request
timings, rounds, pattern choices) -- on random DAGs, under fault
injection, and with tracing attached.  Estimates are kept dyadic
(multiples of 0.25) so incremental float sums are bit-exact against the
reference's from-scratch sums; one golden test pins a schedule under
non-dyadic estimates, where the planner's float summation order shows.

The retired planner and scheduling loop live here, as the oracle these
tests compare against.
"""

import hashlib
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import TailCostPlanner
from repro.core.priorities import assign_topological_priorities
from repro.core.requests import ReadySimulation, RequestDag, SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    PrefixTangoScheduler,
    ScheduleResult,
)
from repro.faults import DisconnectWindow, FaultInjector, FaultPlan
from repro.obs import Instruments, MetricsRegistry, Tracer
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.perf.workloads import (
    UNLOCK_ESTIMATES,
    chain_dag,
    fast_executor,
    layered_dag,
    unlock_groups_dag,
)
from repro.workloads.classbench import classbench_preset

class _ReferencePrefixPlanner:
    """The retired recursive prefix planner (pre tail-cost-cache).

    Its depth-0 branch batches greedily to completion by *walking the
    whole remaining DAG* -- re-deriving and re-sorting every successive
    ready set -- once per plan node, and its depth>0 branch rebuilds
    per-prefix makespan estimates from scratch for every candidate cut,
    making the unlock workload ~O(n^2).
    """

    def __init__(self, scheduler: "ReferencePrefixTangoScheduler") -> None:
        self._scheduler = scheduler

    def plan(
        self, sim: ReadySimulation, depth: int
    ) -> Tuple[float, Optional[int]]:
        scheduler = self._scheduler
        dag = sim.dag
        ready = sim.ready()
        if not ready:
            return 0.0, None
        _, ordered = scheduler.oracle.choose(ready)

        if depth <= 0:
            # Greedy full batches to completion, iteratively (a deep
            # recursion here would overflow on chain-shaped DAGs).
            first_cut = len(ordered)
            total = 0.0
            frames = 0
            while ready:
                total += scheduler._estimate_batch_ms(ordered)
                sim.complete([r.request_id for r in ordered])
                frames += 1
                ready = sim.ready()
                if ready:
                    _, ordered = scheduler.oracle.choose(ready)
            for _ in range(frames):
                sim.undo()
            return total, first_cut

        best_cost = float("inf")
        best_cut: Optional[int] = None
        for cut in scheduler._candidate_cuts(dag, ordered) + [len(ordered)]:
            prefix = ordered[:cut]
            sim.complete([r.request_id for r in prefix])
            rest, _ = self.plan(sim, depth - 1)
            sim.undo()
            cost = scheduler._estimate_batch_ms(prefix) + rest
            if cost < best_cost:
                best_cost = cost
                best_cut = cut
        return best_cost, best_cut


class ReferencePrefixTangoScheduler(PrefixTangoScheduler):
    """Prefix scheduling with the retired recursive planner.

    Identical schedules (issue order, timings, rounds, pattern choices)
    to :class:`~repro.core.scheduler.PrefixTangoScheduler`; only the
    planning machinery differs.  The scheduling loop is the retired one
    too: every round pays a full ``independent_requests`` +
    ``oracle.choose`` pass on top of the planner's greedy re-walks, so
    ``dag.ops`` counts the quadratic work the incremental planner
    eliminated.
    """

    def _plan(
        self, sim: ReadySimulation, depth: int
    ) -> Tuple[float, Optional[int]]:
        return _ReferencePrefixPlanner(self).plan(sim, depth)

    def _estimate_batch_ms(self, ordered: Sequence[SwitchRequest]) -> float:
        """Estimated makespan of a batch (per-switch serial, cross parallel)."""
        per_switch: Dict[str, float] = defaultdict(float)
        for request in ordered:
            per_switch[request.location] += self.estimate(request)
        return max(per_switch.values(), default=0.0)

    def _candidate_cuts(
        self, dag: RequestDag, ordered: Sequence[SwitchRequest]
    ) -> List[int]:
        """Prefix lengths whose completion unlocks new requests."""
        unlocking = set()
        for index, request in enumerate(ordered):
            if dag.successor_ids(request.request_id):
                unlocking.add(index + 1)
        cuts = sorted(c for c in unlocking if c < len(ordered))
        return cuts[: self.max_prefixes]

    def schedule(self, dag: RequestDag) -> ScheduleResult:
        # The Basic preamble: PrefixTangoScheduler's would also build
        # the incremental planner this reference is checked against.
        result = BasicTangoScheduler._begin_schedule(self, dag)
        finish_times: Dict[int, float] = {}
        makespan = self.executor.epoch_ms
        sim = dag.simulation(dag.done_ids)
        while not dag.is_done():
            independent = dag.independent_requests()
            if not independent:
                raise RuntimeError("DAG not done but no independent requests")
            pattern, ordered = self.oracle.choose(independent)

            _, cut = self._plan(sim, self.lookahead_depth)
            issue_now = ordered[: self._resolve_cut(cut, len(ordered))]

            result.pattern_choices.append(pattern.name)
            batch = self._open_batch(
                pattern.name,
                issue_now,
                result.rounds,
                ready=len(ordered),
                cut=len(issue_now),
            )
            batch_start = len(result.records)
            issued: List[SwitchRequest] = []
            for request in issue_now:
                dep_finish = self._dep_finish(dag, request, finish_times)
                record = self._issue_or_defer(
                    dag, request, dep_finish, finish_times, result
                )
                if record is not None:
                    issued.append(request)
                    makespan = max(makespan, record.finished_ms)
            self._close_batch(batch, len(issue_now), result.records[batch_start:])
            sim.commit(r.request_id for r in issued)
            result.rounds += 1
        return self._finalize_schedule(result, makespan)


COMMANDS = (FlowModCommand.ADD, FlowModCommand.MODIFY, FlowModCommand.DELETE)
LOCATIONS = ("a", "b", "c")


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


@st.composite
def dag_specs(draw):
    """A random DAG spec: requests, forward-only edges, dyadic estimates."""
    n = draw(st.integers(min_value=1, max_value=32))
    n_switches = draw(st.integers(min_value=1, max_value=3))
    requests = [
        (
            draw(st.integers(0, n_switches - 1)),
            draw(st.sampled_from(COMMANDS)),
            draw(st.integers(1, 8)),
        )
        for _ in range(n)
    ]
    raw_edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges = sorted({(a, b) for a, b in raw_edges if a < b})
    # Per-switch estimates in {0.25, 0.5, ..., 4.0}: dyadic, non-negative.
    estimates = {
        LOCATIONS[i]: draw(st.integers(1, 16)) * 0.25 for i in range(n_switches)
    }
    depth = draw(st.integers(1, 3))
    return requests, edges, estimates, depth


def _build_dag(requests, edges):
    dag = RequestDag()
    built = []
    for i, (loc, command, priority) in enumerate(requests):
        built.append(
            dag.new_request(LOCATIONS[loc], command, _match(i), priority=priority)
        )
    for a, b in edges:
        dag.add_dependency(built[a], built[b], check_cycle=False)
    dag.validate_acyclic()
    return dag


def _schedulers(estimates, depth, scheduler_cls=PrefixTangoScheduler, **kwargs):
    return scheduler_cls(
        fast_executor(*sorted(estimates)),
        estimate=lambda request: estimates[request.location],
        lookahead_depth=depth,
        **kwargs,
    )


def _signature(result):
    return (
        result.makespan_ms,
        result.rounds,
        tuple(result.pattern_choices),
        result.deadline_misses,
        result.fault_retries,
        tuple(sorted(result.faulted_request_ids)),
        tuple(
            (r.request.request_id, r.started_ms, r.finished_ms)
            for r in result.records
        ),
    )


# -- hypothesis differentials -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(dag_specs())
def test_random_dags_schedule_byte_identical(spec):
    requests, edges, estimates, depth = spec
    new = _schedulers(estimates, depth).schedule(_build_dag(requests, edges))
    ref = _schedulers(
        estimates, depth, scheduler_cls=ReferencePrefixTangoScheduler
    ).schedule(_build_dag(requests, edges))
    assert _signature(new) == _signature(ref)


@settings(max_examples=60, deadline=None)
@given(dag_specs())
def test_random_dags_plan_decisions_identical(spec):
    """(cost, cut) agree at every depth, including the depth-0 estimate."""
    requests, edges, estimates, depth = spec
    dag = _build_dag(requests, edges)
    new_scheduler = _schedulers(estimates, depth)
    ref_scheduler = _schedulers(
        estimates, depth, scheduler_cls=ReferencePrefixTangoScheduler
    )
    for probe_depth in range(depth + 1):
        new_cost, new_cut = new_scheduler._plan(dag.simulation(), probe_depth)
        ref_cost, ref_cut = ref_scheduler._plan(dag.simulation(), probe_depth)
        assert (new_cost, new_cut) == (ref_cost, ref_cut)


@settings(max_examples=25, deadline=None)
@given(dag_specs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_dags_identical_under_fault_injection(spec, seed):
    requests, edges, estimates, depth = spec
    plan = FaultPlan(
        seed=seed,
        loss_probability=0.15,
        disconnects=(DisconnectWindow(start_ms=0.5, reconnect_at_ms=2.0),),
    )

    def run(scheduler_cls):
        scheduler = _schedulers(
            {k: v for k, v in estimates.items()},
            depth,
            scheduler_cls=scheduler_cls,
        )
        scheduler.executor = fast_executor(
            *sorted(estimates), fault_injector=FaultInjector(plan)
        )
        return scheduler.schedule(_build_dag(requests, edges))

    assert _signature(run(PrefixTangoScheduler)) == _signature(
        run(ReferencePrefixTangoScheduler)
    )


@settings(max_examples=25, deadline=None)
@given(dag_specs())
def test_random_dags_identical_with_tracing_enabled(spec):
    requests, edges, estimates, depth = spec
    tracer = Tracer()
    traced = _schedulers(
        estimates,
        depth,
        instruments=Instruments(tracer=tracer, metrics=MetricsRegistry()),
    ).schedule(_build_dag(requests, edges))
    ref = _schedulers(
        estimates, depth, scheduler_cls=ReferencePrefixTangoScheduler
    ).schedule(_build_dag(requests, edges))
    assert _signature(traced) == _signature(ref)
    assert len(tracer) > 0


# -- deterministic workload differentials -------------------------------------


def _unlock_estimate(request):
    return UNLOCK_ESTIMATES[request.location]


def test_bench_workloads_schedule_byte_identical():
    """The bench workloads, including ``prefix_lookahead``'s unlock
    workload at the gate's own size (n=1000)."""
    cases = [
        (unlock_groups_dag, 95, ("a", "b"), _unlock_estimate),
        (unlock_groups_dag, 1000, ("a", "b"), _unlock_estimate),
        (chain_dag, 120, ("sw",), lambda request: 1.0),
        (layered_dag, 150, ("sw",), lambda request: 1.0),
    ]
    for build, n, locations, estimate in cases:
        new = PrefixTangoScheduler(
            fast_executor(*locations), estimate=estimate, lookahead_depth=2
        ).schedule(build(n))
        ref = ReferencePrefixTangoScheduler(
            fast_executor(*locations), estimate=estimate, lookahead_depth=2
        ).schedule(build(n))
        assert _signature(new) == _signature(ref), (build.__name__, n)


def test_non_dyadic_estimates_schedule_is_pinned():
    """Golden schedule with non-dyadic estimates, where float summation
    order matters: the planner's level/tail updates must keep their
    exact sequence of float operations.  The pinned values are those of
    the Fenwick-ordered planner this one replaced."""
    ruleset = classbench_preset(3)
    priorities = assign_topological_priorities(ruleset.dependencies)
    dag = RequestDag()
    requests = [
        dag.new_request("sw", FlowModCommand.ADD, rule, priority=priorities[i])
        for i, rule in enumerate(ruleset.rules)
    ]
    for first, then in ruleset.dependencies.edges():
        dag.add_dependency(requests[first], requests[then], check_cycle=False)
    dag.validate_acyclic()
    result = PrefixTangoScheduler(
        fast_executor("sw"),
        estimate=lambda request: 0.1 * (1 + request.priority % 7),
    ).schedule(dag)
    issue_order = ",".join(str(r.request.request_id) for r in result.records)
    assert result.makespan_ms == 194.3999999999975
    assert result.rounds == 85
    assert result.pattern_choices == ["DEL MOD ASCEND_ADD"] * 85
    assert hashlib.sha256(issue_order.encode()).hexdigest()[:16] == (
        "a33bbc8fda9ba269"
    )


def test_planner_restores_cursor_and_reports_stats():
    dag = unlock_groups_dag(60)
    sim = dag.simulation()
    planner = TailCostPlanner(
        sim,
        estimate=_unlock_estimate,
        patterns=PrefixTangoScheduler(
            fast_executor("a", "b"), estimate=_unlock_estimate
        ).oracle.patterns,
    )
    before = sim.ready_ids()
    planner.plan(3)
    assert sim.ready_ids() == before
    stats = planner.stats()
    assert stats["plan_calls"] > 0
    assert stats["memo_misses"] >= 1


def test_planner_complete_validates_before_mutating():
    """A not-ready or duplicated request is rejected with the planner
    untouched; a valid complete is undone exactly."""
    dag = unlock_groups_dag(40)
    planner = TailCostPlanner(
        dag.simulation(),
        estimate=_unlock_estimate,
        patterns=PrefixTangoScheduler(
            fast_executor("a", "b"), estimate=_unlock_estimate
        ).oracle.patterns,
    )
    ready = [r.request_id for r in planner.head_requests(planner.ready_count)]
    blocked = next(r.request_id for r in dag.requests if r.request_id not in ready)

    def state():
        return planner.ready_count, planner.fingerprint, planner.plan(0)

    before = state()
    for bad in ([ready[1], blocked], [ready[0], ready[0]]):
        with pytest.raises(ValueError):
            planner.complete(bad)
        assert state() == before
    planner.complete(ready[:1])
    assert state() != before
    planner.undo()
    assert state() == before


# -- the falsy-cut regression -------------------------------------------------


def test_resolve_cut_distinguishes_zero_from_none():
    """The retired expression ``cut if cut else len(ordered)`` promoted a
    cut of 0 to the full batch; the fix must keep 0 meaning zero and map
    only None (no plan) to the full batch."""
    assert PrefixTangoScheduler._resolve_cut(0, 7) == 0
    assert PrefixTangoScheduler._resolve_cut(None, 7) == 7
    assert PrefixTangoScheduler._resolve_cut(3, 7) == 3
