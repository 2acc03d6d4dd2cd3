"""Tests for the tango-bench perf harness (repro.perf).

Also home of the Basic scheduler's differential oracle: the retired
per-round-rescan implementation the incremental ready set replaced.
"""

import io
import json
from typing import Dict, List, Set

import pytest

from repro.core.requests import RequestDag, SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    ScheduleResult,
    _count_deadline_misses,
)
from repro.perf.cli import main as _bench_cli_main
from repro.perf.harness import (
    REGRESSION_THRESHOLD,
    baseline_from_records,
    compare_to_baseline,
    records_to_report,
    run_suite,
)
from repro.perf.harness import bench_chain_schedule as _chain_case
from repro.perf.harness import bench_descending_shifts as _shifts_case
from repro.perf.harness import bench_prefix_lookahead as _lookahead_case
from repro.perf.harness import bench_serve_churn as _serve_case
from repro.perf.workloads import chain_dag, fast_executor, layered_dag, unlock_groups_dag


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
    """Small layered DAG, then the chain and layered gate workloads at
    the gate's own size (n=1000)."""
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


def test_run_suite_quick_sizes_and_keys():
    records = run_suite(sizes=[50])
    keys = [record.key for record in records]
    assert keys == [
        "chain_schedule:50",
        "layered_schedule:50",
        "descending_shifts:50",
        "prefix_lookahead:50",
        "faulted_schedule:50",
        "fleet_infer:12",  # fleet size is capped at FLEET_MEMBER_CAP
        "sharded_fleet:50",
        "serve_churn:50",
    ]


# -- regression gate ----------------------------------------------------------
def test_compare_to_baseline_flags_only_regressions():
    records = run_suite(sizes=[40])
    baseline = baseline_from_records(records)
    assert compare_to_baseline(records, baseline) == []
    # Shrink one baseline entry so the same run now "regresses".
    key = records[0].key
    baseline[key] = int(records[0].ops / (REGRESSION_THRESHOLD * 2))
    regressions = compare_to_baseline(records, baseline)
    assert [r["key"] for r in regressions] == [key]
    # Unknown keys in the run (absent from baseline) are not gated.
    assert compare_to_baseline(records, {}) == []


def test_compare_to_baseline_gates_zero_baseline():
    """A baseline of 0 ops is a real entry, not a missing one: any ops at
    all regress against it (with an undefined ratio reported as None)."""
    records = run_suite(sizes=[40])
    baseline = baseline_from_records(records)
    key = records[0].key
    assert records[0].ops > 0
    baseline[key] = 0
    regressions = compare_to_baseline(records, baseline)
    assert [r["key"] for r in regressions] == [key]
    assert regressions[0]["ratio"] is None
    assert regressions[0]["baseline_ops"] == 0


def test_report_document_shape():
    records = run_suite(sizes=[30])
    report = records_to_report(records, [], quick=True, baseline_path=None)
    assert set(report) == {
        "suite", "quick", "threshold", "baseline_path", "results",
        "regressions", "ok",
    }
    assert report["ok"] is True
    assert report["suite"] == "scheduler-hot-paths"
    assert len(report["results"]) == 8
    for result in report["results"]:
        assert set(result) == {"case", "n", "ops", "detail"}


def test_run_suite_cases_filter():
    records = run_suite(sizes=[40], cases=["prefix_lookahead"])
    assert [record.case for record in records] == ["prefix_lookahead"]
    with pytest.raises(ValueError, match="unknown bench cases"):
        run_suite(sizes=[40], cases=["no_such_case"])


# -- CLI ----------------------------------------------------------------------
def _run_cli(args):
    out = io.StringIO()
    code = _bench_cli_main(args, out=out)
    return code, out.getvalue()


def test_cli_update_baseline_then_gate_passes(tmp_path):
    baseline = tmp_path / "baseline.json"
    output = tmp_path / "BENCH_scheduler.json"
    code, _ = _run_cli(
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output), "--update-baseline"]
    )
    assert code == 0
    assert json.loads(baseline.read_text())

    code, text = _run_cli(
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output)]
    )
    assert code == 0
    assert "perf gate ok" in text
    report = json.loads(output.read_text())
    assert report["ok"] is True
    assert report["regressions"] == []


def test_cli_fails_on_regression(tmp_path):
    baseline = tmp_path / "baseline.json"
    output = tmp_path / "BENCH_scheduler.json"
    # A baseline claiming near-zero ops makes any real run a regression.
    baseline.write_text(json.dumps({"chain_schedule:40": 1}))
    code, text = _run_cli(
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output)]
    )
    assert code == 1
    assert "REGRESSION chain_schedule:40" in text
    report = json.loads(output.read_text())
    assert report["ok"] is False


def test_cli_missing_baseline_skips_gate(tmp_path):
    output = tmp_path / "BENCH_scheduler.json"
    code, text = _run_cli(
        ["--sizes", "30", "--baseline", str(tmp_path / "absent.json"),
         "--output", str(output)]
    )
    assert code == 0
    assert "regression gate skipped" in text


def test_cli_cases_filter_runs_selected_case_only(tmp_path):
    output = tmp_path / "BENCH_prefix_scaling.json"
    code, text = _run_cli(
        ["--cases", "prefix_lookahead", "--sizes", "40",
         "--baseline", str(tmp_path / "absent.json"),
         "--output", str(output)]
    )
    assert code == 0
    report = json.loads(output.read_text())
    assert [r["case"] for r in report["results"]] == ["prefix_lookahead"]


def test_checked_in_baseline_covers_quick_sizes():
    """CI's --quick run must actually gate: every quick-size key needs a
    checked-in baseline entry."""
    from pathlib import Path

    from repro.perf.harness import QUICK_SIZES

    baseline_path = (
        Path(__file__).resolve().parent.parent / "benchmarks" / "perf_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text())
    records = run_suite(sizes=QUICK_SIZES)
    for record in records:
        assert record.key in baseline, record.key
        ratio = record.ops / baseline[record.key]
        assert ratio <= REGRESSION_THRESHOLD
        assert ratio >= 1.0 / REGRESSION_THRESHOLD  # baseline not stale-high


def test_serve_churn_episode_matches_baseline_exactly():
    """5,000 arrivals is one tangobench ``serve_churn`` episode: its op
    count must equal the checked-in entry, not only stay within the
    gate's ratio."""
    from pathlib import Path

    baseline_path = (
        Path(__file__).resolve().parent.parent / "benchmarks" / "perf_baseline.json"
    )
    baseline = json.loads(baseline_path.read_text())
    record = _serve_case(5000)
    assert record.key == "serve_churn:5000"
    assert record.ops == baseline[record.key] == 9665


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
    from repro.obs.telemetry import telemetry_jsonl_lines
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
            streams.append(telemetry_jsonl_lines(instruments.telemetry.samples))
        assert streams[0] == streams[1], name


def test_verify_noop_passes():
    from repro.perf.harness import NOOP_WORKLOADS, verify_noop

    # AssertionError is the failure mode: a sink combination, the
    # zero-fault injector or the sanitizer changed a run's ops, issue
    # records, fleet models/timelines or TangoDB records, or same-seed
    # collectors streamed different telemetry.
    payload = verify_noop(n=200)
    assert set(payload) == set(NOOP_WORKLOADS)
    for summary in payload.values():
        assert summary["ops"] > 0
        assert summary["trace_events"] > 0
        assert summary["metrics"] > 0
        assert summary["telemetry_samples"] > 0
    # The sanitizer arm saw the fleet's accesses and no race.
    assert payload["fleet"]["accesses"] > 0
    assert payload["fleet"]["findings"] == 0


def test_fleet_infer_case_is_trajectory_only_and_deterministic():
    from repro.perf.harness import FLEET_MEMBER_CAP, bench_fleet_infer

    cap = FLEET_MEMBER_CAP
    assert cap == 12  # the checked-in fleet_infer:12 baseline key
    first = bench_fleet_infer(1000)
    second = bench_fleet_infer(1000)
    assert first.n == second.n == cap  # capped fleet size
    assert first.ops == second.ops > 0
    assert first.detail["makespan_ms"] == second.detail["makespan_ms"]
    # 3 distinct profiles -> 3 full probes; the rest coalesce or hit cache.
    assert first.detail["full_probe_runs"] == 3
    assert (
        first.detail["cache_hits"] + first.detail["coalesced_joins"]
        == cap - 3
    )
    assert first.detail["speedup_virtual"] > 1.0
    # Below the cap the fleet is exactly n members.
    assert bench_fleet_infer(5).n == 5


def test_sharded_fleet_case_is_deterministic_and_reports_shard_stats():
    from repro.perf.harness import bench_sharded_fleet

    # A 12-member fleet (size = min(n, cap)) at the case's own geometry.
    first = bench_sharded_fleet(12)
    second = bench_sharded_fleet(12)
    assert first.n == second.n == 12
    assert first.ops == second.ops > 0
    stats = first.detail["shards"]
    assert stats["shards"] == 4 and stats["backend"] == "inline"
    assert stats["partition"] == "tier"
    assert len(stats["per_shard"]) == 4
    assert stats == second.detail["shards"]


def test_faulted_schedule_case_is_deterministic_and_counts_faults():
    from repro.perf.harness import bench_faulted_schedule

    first = bench_faulted_schedule(300)
    second = bench_faulted_schedule(300)
    assert first.ops == second.ops > 0
    assert first.detail["makespan_ms"] == second.detail["makespan_ms"]
    assert first.detail["fault_retries"] == second.detail["fault_retries"] > 0
    assert first.detail["injected"]["disconnects"] > 0


def test_run_suite_includes_faulted_case():
    from repro.perf.harness import run_suite

    records = run_suite(sizes=[300])
    assert any(record.case == "faulted_schedule" for record in records)
