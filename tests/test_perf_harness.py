"""Tests for the deterministic op-count bench cases (repro.perf).

``test_op_count_matches_baseline`` asserts every entry of
``benchmarks/perf_baseline.json`` exactly; the file is the one list of
gated (case, n) pairs.  Also home of the Basic scheduler's differential
oracle: the retired per-round-rescan implementation the incremental
ready set replaced.
"""

import json
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro.core.requests import RequestDag, SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    ScheduleResult,
    _count_deadline_misses,
)
from repro.perf.harness import CASE_NAMES
from repro.perf.harness import bench_chain_schedule as _chain_case
from repro.perf.harness import bench_descending_shifts as _shifts_case
from repro.perf.harness import bench_prefix_lookahead as _lookahead_case
from repro.perf.workloads import chain_dag, fast_executor, layered_dag, unlock_groups_dag

BASELINE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_baseline.json"
BASELINE: Dict[str, int] = json.loads(BASELINE_PATH.read_text())

#: The cases whose op count has a closed form in n.
CLOSED_FORMS = {
    "chain_schedule": lambda n: 2 * n - 1,
    "layered_schedule": lambda n: 2 * n - 50,
    "descending_shifts": lambda n: n * (n + 1) // 2,
}


class ReferenceBasicTangoScheduler(BasicTangoScheduler):
    """Algorithm 3 with the original per-round full ready rescan.

    Identical issue order, timings, and pattern choices to
    :class:`~repro.core.scheduler.BasicTangoScheduler`; only the ready-set
    discovery differs: every round walks all V requests and their
    in-edges, making chain-shaped DAGs O(V * (V + E)).  ``scan_ops``
    counts the requests and in-edges those rescans visit -- the work the
    incremental ready set eliminated.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scan_ops = 0

    def _scan_independent(
        self, dag: RequestDag, done: Set[int]
    ) -> List[SwitchRequest]:
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


# -- workloads ----------------------------------------------------------------
def test_chain_dag_shape():
    dag = chain_dag(10)
    assert len(dag) == 10
    assert dag.depth() == 10


def test_layered_dag_shape():
    dag = layered_dag(100, width=10)
    assert len(dag) == 100
    assert dag.depth() == 10


def test_unlock_groups_dag_shape():
    dag = unlock_groups_dag(40, group=20)
    assert len(dag) == 40
    assert dag.depth() == 2
    locations = {r.location for r in dag.requests}
    assert sorted(locations) == ["a", "b"]


def test_workloads_are_deterministic():
    a, b = layered_dag(60), layered_dag(60)
    assert [r.priority for r in a.requests] == [r.priority for r in b.requests]
    assert a.edge_ids() == b.edge_ids()


# -- Basic scheduler vs the retired rescan -------------------------------------
def test_reference_scheduler_matches_optimized_bit_for_bit():
    """Small layered DAG, then the chain and layered baseline workloads
    at their smallest baseline size (n=1000)."""
    builds = (
        lambda: layered_dag(80, width=8),
        lambda: chain_dag(1000),
        lambda: layered_dag(1000),
    )
    for build in builds:
        dag = build()
        dag.ops.clear()
        optimized = BasicTangoScheduler(fast_executor()).schedule(dag)
        reference_scheduler = ReferenceBasicTangoScheduler(fast_executor())
        reference = reference_scheduler.schedule(build())
        assert reference.makespan_ms == optimized.makespan_ms
        assert reference.rounds == optimized.rounds
        assert reference.pattern_choices == optimized.pattern_choices
        assert reference.total_requests == optimized.total_requests
        assert [r.request.request_id for r in reference.records] == [
            r.request.request_id for r in optimized.records
        ]
        # The rescans do strictly more work than the incremental ready set.
        assert reference_scheduler.scan_ops > dag.ops.total() > 0


# -- bench cases --------------------------------------------------------------
def test_shift_case_counts_quadratic_reference_work():
    n = 200
    record = _shifts_case(n)
    assert record.detail["total_shifts"] == n * (n - 1) // 2
    assert record.ops == n * (n + 1) // 2  # list element moves


# -- the op-count baseline ----------------------------------------------------
@pytest.mark.parametrize("key", sorted(BASELINE))
def test_op_count_matches_baseline(key):
    """Each count is exact: after a deliberate algorithm change, edit the
    entry in benchmarks/perf_baseline.json to the measured count."""
    case, size = key.split(":")
    n = int(size)
    record = CASE_NAMES[case](n)
    assert record.key == key
    assert record.ops == BASELINE[key], f"{key} measured {record.ops} ops"
    if case in CLOSED_FORMS:
        assert record.ops == CLOSED_FORMS[case](n)


def test_bench_records_carry_op_attribution():
    record = _chain_case(200)
    attribution = record.detail["attribution"]
    assert attribution["scheduler.oracle_calls"] == 200
    assert attribution["scheduler.requests{scheduler=BasicTangoScheduler}"] == 200
    shift = _shifts_case(100)
    shift_attr = shift.detail["attribution"]
    assert shift_attr["tcam.shift_model_queries"] == 100
    assert shift_attr["tcam.shift_accounting_ops"] == shift.ops
    lookahead = _lookahead_case(100)
    assert "scheduler.oracle_calls" in lookahead.detail["attribution"]
    planner = lookahead.detail["planner"]
    assert planner["plan_calls"] > 0
    assert {"memo_hits", "memo_misses", "dominance_prunes"} <= set(planner)


def test_verify_noop_instrumentation_passes():
    from repro.obs import NULL_INSTRUMENTS, Instruments, MetricsRegistry, TelemetryCollector, Tracer
    from repro.obs.export import jsonl_lines
    from repro.perf.harness import NOOP_WORKLOADS

    # Every sink attached at once: each workload's ops, issue records,
    # fleet models and TangoDB records are unchanged, every sink
    # recorded, and two same-seed collectors stream identical telemetry.
    for name, run in NOOP_WORKLOADS.items():
        bare = run(200, NULL_INSTRUMENTS)
        assert bare[0] > 0
        streams = []
        for _ in range(2):
            instruments = Instruments(
                Tracer(), MetricsRegistry(), TelemetryCollector(interval_ms=5.0)
            )
            assert run(200, instruments) == bare, name
            assert len(instruments.tracer) > 0, name
            assert len(instruments.metrics) > 0, name
            assert instruments.telemetry.samples, name
            streams.append(jsonl_lines(instruments.telemetry.samples))
        assert streams[0] == streams[1], name


def test_verify_noop_passes():
    from repro.perf.harness import NOOP_WORKLOADS, verify_noop

    # AssertionError is the failure mode: a sink combination or the
    # zero-fault injector changed a run's ops, issue
    # records, fleet models/timelines or TangoDB records, or same-seed
    # collectors streamed different telemetry.
    payload = verify_noop(n=200)
    assert set(payload) == set(NOOP_WORKLOADS)
    for summary in payload.values():
        assert summary["ops"] > 0
        assert summary["trace_events"] > 0
        assert summary["metrics"] > 0
        assert summary["telemetry_samples"] > 0


def test_fleet_infer_case_is_trajectory_only_and_deterministic():
    from repro.perf.harness import bench_fleet_infer

    size = 12  # the checked-in fleet_infer:12 baseline key
    first = bench_fleet_infer(size)
    second = bench_fleet_infer(size)
    assert first.n == second.n == size
    assert first.ops == second.ops > 0
    assert first.detail["makespan_ms"] == second.detail["makespan_ms"]
    # 3 distinct profiles -> 3 full probes; the rest coalesce or hit cache.
    assert first.detail["full_probe_runs"] == 3
    assert (
        first.detail["cache_hits"] + first.detail["coalesced_joins"]
        == size - 3
    )
    assert first.detail["speedup_virtual"] > 1.0
    assert bench_fleet_infer(5).n == 5


def test_faulted_schedule_case_is_deterministic_and_counts_faults():
    from repro.perf.harness import bench_faulted_schedule

    first = bench_faulted_schedule(300)
    second = bench_faulted_schedule(300)
    assert first.ops == second.ops > 0
    assert first.detail["makespan_ms"] == second.detail["makespan_ms"]
    assert first.detail["fault_retries"] == second.detail["fault_retries"] > 0
    assert first.detail["injected"]["disconnects"] > 0
