"""Pre-optimization reference implementations (the bench's slow arm).

These preserve the *algorithms* this PR's hot-path work replaced, built
on the DAG's public query API so they stay runnable as the internals
evolve.  Each tallies its work in a deterministic operation counter;
``tango-bench`` runs them next to the optimized implementations and
asserts the results are bit-for-bit identical.

* :class:`ReferenceBasicTangoScheduler` -- Algorithm 3 with the original
  per-round full rescan: every round walks all V requests and their
  in-edges to recover the independent set, making chain-shaped DAGs
  O(V * (V + E)).
* :class:`_ReferencePrefixPlanner` /
  :class:`ReferencePrefixTangoScheduler` -- the retired recursive
  prefix planner, whose depth-0 estimate greedily re-simulates the
  *entire remaining DAG* per plan node (and whose scheduling loop
  re-derives and re-sorts the full ready set every round), making the
  unlock workload ~O(n^2).  The incremental
  :class:`~repro.core.planner.TailCostPlanner` replaced it; the
  differential suite pins both to byte-identical decisions and
  schedules.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.requests import ReadySimulation, RequestDag, SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    PrefixTangoScheduler,
    ScheduleResult,
    _count_deadline_misses,
)

__all__ = [
    "ReferenceBasicTangoScheduler",
    "ReferencePrefixTangoScheduler",
    "_ReferencePrefixPlanner",
]

#: The quadratic reference prefix arm is not run beyond this size.
PREFIX_REFERENCE_CAP = 2000


class ReferenceBasicTangoScheduler(BasicTangoScheduler):
    """Greedy pattern-oracle scheduling with per-round ready rescans.

    Identical issue order, timings, and pattern choices to
    :class:`~repro.core.scheduler.BasicTangoScheduler`; only the ready-set
    discovery differs.  ``scan_ops`` counts requests and in-edges visited
    by the rescans -- the work the incremental ready set eliminated.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scan_ops = 0

    def _scan_independent(
        self, dag: RequestDag, done: Set[int]
    ) -> List[SwitchRequest]:
        """The historical O(V + E) scan: check every request's in-edges."""
        ready: List[SwitchRequest] = []
        for request in dag.requests:
            rid = request.request_id
            if rid in done:
                continue
            predecessors = dag.predecessor_ids(rid)
            self.scan_ops += 1 + len(predecessors)
            if all(p in done for p in predecessors):
                ready.append(request)
        return ready

    def schedule(self, dag: RequestDag) -> ScheduleResult:
        self.executor.reset_epoch()
        result = ScheduleResult(makespan_ms=0.0)
        finish_times: Dict[int, float] = {}
        done: Set[int] = set()
        makespan = self.executor.epoch_ms
        total = len(dag)
        while len(done) < total:
            independent = self._scan_independent(dag, done)
            if not independent:
                raise RuntimeError("DAG not done but no independent requests")
            pattern, ordered = self.oracle.choose(independent)
            result.pattern_choices.append(pattern.name)
            for request in ordered:
                dep_finish = max(
                    (
                        finish_times[p]
                        for p in dag.predecessor_ids(request.request_id)
                    ),
                    default=self.executor.epoch_ms,
                )
                record = self.executor.issue(request, not_before_ms=dep_finish)
                finish_times[request.request_id] = record.finished_ms
                result.records.append(record)
                done.add(request.request_id)
                makespan = max(makespan, record.finished_ms)
            result.rounds += 1
        result.makespan_ms = makespan - self.executor.epoch_ms
        result.deadline_misses = _count_deadline_misses(
            result.records, self.executor.epoch_ms
        )
        return result


class _ReferencePrefixPlanner:
    """The retired recursive prefix planner (pre tail-cost-cache).

    Kept verbatim as the differential oracle: its depth-0 branch batches
    greedily to completion by *walking the whole remaining DAG* --
    re-deriving and re-sorting every successive ready set -- once per
    plan node, and its depth>0 branch rebuilds per-prefix makespan
    estimates from scratch for every candidate cut.
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
    planning machinery differs.  The scheduling loop is the retired
    one too: every round pays a full ``independent_requests`` +
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
        result = self._begin_schedule(dag)
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
            span = self._open_batch_span(pattern.name, issue_now, result.rounds)
            if self.tracer.enabled:
                span.set(ready=len(ordered), cut=len(issue_now))
            batch_start = len(result.records)
            batch_start_ms = self.executor.now_ms() if self.tracer.enabled else 0.0
            issued: List[SwitchRequest] = []
            for request in issue_now:
                dep_finish = self._dep_finish(dag, request, finish_times)
                record = self._issue_or_defer(
                    dag, request, dep_finish, finish_times, result
                )
                if record is not None:
                    issued.append(request)
                    makespan = max(makespan, record.finished_ms)
            self._close_batch_span(
                span, batch_start_ms, result.records[batch_start:]
            )
            self._m_batches.inc()
            self._m_requests.inc(len(issue_now))
            sim.commit(r.request_id for r in issued)
            result.rounds += 1
        return self._finalize_schedule(result, makespan)
