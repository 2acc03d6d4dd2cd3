"""Tests for the tango-bench perf harness (repro.perf)."""

import json

import pytest

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
from repro.perf.reference import ReferenceBasicTangoScheduler
from repro.perf.workloads import chain_dag, fast_executor, layered_dag, unlock_groups_dag
from repro.core.scheduler import BasicTangoScheduler

import io


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


# -- reference arm ------------------------------------------------------------
def test_reference_scheduler_matches_optimized_bit_for_bit():
    optimized = BasicTangoScheduler(fast_executor()).schedule(layered_dag(80, width=8))
    reference_scheduler = ReferenceBasicTangoScheduler(fast_executor())
    reference = reference_scheduler.schedule(layered_dag(80, width=8))
    assert reference.makespan_ms == optimized.makespan_ms
    assert reference.rounds == optimized.rounds
    assert reference.pattern_choices == optimized.pattern_choices
    assert [r.request.request_id for r in reference.records] == [
        r.request.request_id for r in optimized.records
    ]
    assert reference_scheduler.scan_ops > 0


# -- bench cases --------------------------------------------------------------
def test_chain_case_verifies_equivalence_and_speedup():
    record = _chain_case(120)
    assert record.identical is True
    assert record.ops > 0
    assert record.ref_ops > record.ops  # rescans do strictly more work
    assert record.speedup_ops > 1.0


def test_shift_case_counts_quadratic_reference_work():
    n = 200
    record = _shifts_case(n)
    assert record.detail["total_shifts"] == n * (n - 1) // 2
    assert record.ops == n * (n + 1) // 2  # list element moves
    assert record.ref_ops is None and record.identical is None  # one model


def test_lookahead_case_verifies_reference_identity():
    record = _lookahead_case(60)
    assert record.identical is True  # full per-record byte identity
    assert record.ops > 0
    assert record.ref_ops > record.ops  # retired planner re-walks the DAG
    planner = record.detail["planner"]
    assert planner["plan_calls"] > 0
    assert {"memo_hits", "memo_misses", "dominance_prunes"} <= set(planner)


def test_lookahead_reference_arm_respects_cap():
    from repro.perf.reference import PREFIX_REFERENCE_CAP

    record = _lookahead_case(PREFIX_REFERENCE_CAP + 1, with_reference=True)
    assert record.ref_ops is None and record.identical is None
    assert record.n == PREFIX_REFERENCE_CAP + 1  # no longer size-capped


def test_run_suite_quick_sizes_and_keys():
    records = run_suite(sizes=[50], with_reference=True)
    keys = [record.key for record in records]
    assert keys == [
        "chain_schedule:50",
        "layered_schedule:50",
        "descending_shifts:50",
        "prefix_lookahead:50",
        "faulted_schedule:50",
        "fleet_infer:12",  # fleet size is capped by the case config
        "sharded_fleet:50",
        "serve_churn:50",
    ]


# -- regression gate ----------------------------------------------------------
def test_compare_to_baseline_flags_only_regressions():
    records = run_suite(sizes=[40], with_reference=False)
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
    records = run_suite(sizes=[40], with_reference=False)
    baseline = baseline_from_records(records)
    key = records[0].key
    assert records[0].ops > 0
    baseline[key] = 0
    regressions = compare_to_baseline(records, baseline)
    assert [r["key"] for r in regressions] == [key]
    assert regressions[0]["ratio"] is None
    assert regressions[0]["baseline_ops"] == 0


def test_report_document_shape():
    records = run_suite(sizes=[30], with_reference=True)
    report = records_to_report(records, [], quick=True, baseline_path=None)
    assert report["ok"] is True
    assert report["suite"] == "scheduler-hot-paths"
    assert len(report["results"]) == 8
    assert {"case", "n", "wall_ms", "ops"} <= set(report["results"][0])
    # Wall-clock trajectories ride along but never gate.
    wall = report["wall_clock"]
    assert wall["gated"] is False
    assert wall["total_wall_ms"] > 0
    assert len(wall["per_case"]) == len(records)
    assert {"key", "wall_ms", "ref_wall_ms", "speedup_wall"} <= set(
        wall["per_case"][0]
    )
    # So do the continuous-telemetry counters.
    telemetry = report["telemetry"]
    assert telemetry["gated"] is False
    assert telemetry["stats"]["samples"] > 0


def test_run_suite_cases_filter():
    records = run_suite(sizes=[40], with_reference=False, cases=["prefix_lookahead"])
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
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output),
         "--no-reference", "--update-baseline"]
    )
    assert code == 0
    assert json.loads(baseline.read_text())

    code, text = _run_cli(
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output),
         "--no-reference"]
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
        ["--sizes", "40", "--baseline", str(baseline), "--output", str(output),
         "--no-reference"]
    )
    assert code == 1
    assert "REGRESSION chain_schedule:40" in text
    report = json.loads(output.read_text())
    assert report["ok"] is False


def test_cli_missing_baseline_skips_gate(tmp_path):
    output = tmp_path / "BENCH_scheduler.json"
    code, text = _run_cli(
        ["--sizes", "30", "--baseline", str(tmp_path / "absent.json"),
         "--output", str(output), "--no-reference"]
    )
    assert code == 0
    assert "regression gate skipped" in text


def test_cli_cases_filter_runs_selected_case_only(tmp_path):
    output = tmp_path / "BENCH_prefix_scaling.json"
    code, text = _run_cli(
        ["--cases", "prefix_lookahead", "--sizes", "40",
         "--baseline", str(tmp_path / "absent.json"),
         "--output", str(output), "--no-reference"]
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
    records = run_suite(sizes=QUICK_SIZES, with_reference=False)
    for record in records:
        assert record.key in baseline, record.key
        ratio = record.ops / baseline[record.key]
        assert ratio <= REGRESSION_THRESHOLD
        assert ratio >= 1.0 / REGRESSION_THRESHOLD  # baseline not stale-high


def test_tools_cli_mounts_bench_subcommand(tmp_path):
    from repro.tools.cli import main as tools_main

    out = io.StringIO()
    code = tools_main(
        ["bench", "--sizes", "30", "--no-reference",
         "--baseline", str(tmp_path / "absent.json"),
         "--output", str(tmp_path / "BENCH_scheduler.json")],
        out=out,
    )
    assert code == 0
    assert "trajectory written" in out.getvalue()


def test_shift_wall_time_note_is_honest():
    """The gate must use ops, not wall: document-level sanity that the
    record carries both metrics separately."""
    record = _shifts_case(100)
    assert record.wall_ms >= 0.0
    assert record.ops == 100 * 101 // 2
    with pytest.raises(AttributeError):
        record.speedup  # no ambiguous single "speedup" field


def test_bench_records_carry_op_attribution():
    record = _chain_case(200, with_reference=False)
    attribution = record.detail["attribution"]
    assert attribution["scheduler.oracle_calls"] == 200
    assert attribution["scheduler.requests{scheduler=BasicTangoScheduler}"] == 200
    shift = _shifts_case(100, with_reference=False)
    shift_attr = shift.detail["attribution"]
    assert shift_attr["tcam.shift_model_queries"] == 100
    assert shift_attr["tcam.shift_accounting_ops"] == shift.ops
    lookahead = _lookahead_case(100)
    assert "scheduler.oracle_calls" in lookahead.detail["attribution"]


def test_verify_noop_instrumentation_passes():
    from repro.perf.harness import verify_noop_instrumentation

    payload = verify_noop_instrumentation(n=200)
    assert payload["bare_ops"] == payload["traced_ops"] > 0
    assert payload["signatures_equal"] is True
    assert payload["trace_events"] > 0
    # The prefix-planner arm: tracing/metrics on the incremental planner
    # must not change a single op or issue record.
    assert payload["prefix_bare_ops"] == payload["prefix_traced_ops"] > 0
    assert payload["prefix_signatures_equal"] is True
    assert payload["prefix_trace_events"] > 0
    # The fleet arm of the check: telemetry must not change fleet probe
    # work either (ops, models, virtual timings).
    assert payload["fleet_bare_ops"] == payload["fleet_traced_ops"] > 0
    assert payload["fleet_signatures_equal"] is True
    assert payload["fleet_trace_events"] > 0
    # The continuous-telemetry collector arm: an attached collector may
    # not change schedules, op counts, or TangoDB contents, and two
    # same-seed collector runs must serialize byte-identically.
    assert payload["collector_ops"] == payload["bare_ops"]
    assert payload["collector_signatures_equal"] is True
    assert payload["collector_samples"] > 0
    assert payload["collector_stream_identical"] is True
    assert payload["fleet_collector_samples"] > 0
    assert payload["fleet_collector_signatures_equal"] is True
    assert payload["fleet_db_identical"] is True


def test_collect_suite_telemetry_block_shape():
    from repro.perf.harness import collect_suite_telemetry

    block = collect_suite_telemetry(n=200)
    assert block["gated"] is False
    assert block["workload"] == "layered_schedule:200"
    assert block["stats"]["samples"] > 0
    assert block["stats"]["ticks"] > 0
    assert "executor.install_ms" in block["series"]
    # Deterministic: two collections agree exactly.
    assert block == collect_suite_telemetry(n=200)


def test_fleet_infer_case_is_trajectory_only_and_deterministic():
    from repro.perf.harness import DEFAULT_CASE_CONFIG, bench_fleet_infer

    cap = DEFAULT_CASE_CONFIG.fleet_member_cap
    assert cap == 12  # the checked-in fleet_infer:12 baseline key
    first = bench_fleet_infer(1000)
    second = bench_fleet_infer(1000)
    assert first.n == second.n == cap  # capped fleet size
    assert first.ref_ops is None and first.identical is None
    assert first.ops == second.ops > 0
    assert first.detail["makespan_ms"] == second.detail["makespan_ms"]
    # 3 distinct profiles -> 3 full probes; the rest coalesce or hit cache.
    assert first.detail["full_probe_runs"] == 3
    assert (
        first.detail["cache_hits"] + first.detail["coalesced_joins"]
        == cap - 3
    )
    assert first.detail["speedup_virtual"] > 1.0


def test_fleet_infer_cap_is_per_case_config_not_module_state():
    from repro.perf.harness import BenchCaseConfig, bench_fleet_infer

    import dataclasses

    import pytest

    small = bench_fleet_infer(1000, config=BenchCaseConfig(fleet_member_cap=5))
    assert small.n == 5
    # The default config is immutable: no bench can leak a cap change
    # into the next run (TNG041's no-module-mutable-state rule).
    with pytest.raises(dataclasses.FrozenInstanceError):
        BenchCaseConfig().fleet_member_cap = 99
    assert bench_fleet_infer(1000).n == 12


def test_sharded_fleet_case_checks_reference_identity():
    from repro.perf.harness import BenchCaseConfig, bench_sharded_fleet

    config = BenchCaseConfig(sharded_member_cap=12, sharded_shards=3)
    first = bench_sharded_fleet(1000, config=config)
    second = bench_sharded_fleet(1000, config=config)
    assert first.n == second.n == 12
    # The reference arm is the single-queue engine; the record asserts
    # byte-identity (summaries, models, full TangoDB contents).
    assert first.identical is True
    assert first.ref_ops == first.ops == second.ops > 0
    stats = first.detail["shards"]
    assert stats["shards"] == 3 and stats["backend"] == "inline"
    assert len(stats["per_shard"]) == 3
    assert stats == second.detail["shards"]
    # Without the reference arm the case is trajectory-only.
    bare = bench_sharded_fleet(1000, with_reference=False, config=config)
    assert bare.identical is None and bare.ops == first.ops


def test_collect_fleet_scaling_block_is_ungated_and_consistent():
    from repro.perf.harness import collect_fleet_scaling

    block = collect_fleet_scaling(
        members=8, shard_counts=(1, 2), backend="inline"
    )
    assert block["gated"] is False
    assert block["members"] == 8 and block["summaries_identical"] is True
    assert [run["shards"] for run in block["runs"]] == [1, 2]
    assert block["runs"][0]["speedup_wall_vs_1shard"] == 1.0
    # Probe work is deterministic, so both arms agree exactly.
    assert block["runs"][0]["probe_ops"] == block["runs"][1]["probe_ops"] > 0


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

    records = run_suite(sizes=[300], with_reference=False)
    assert any(record.case == "faulted_schedule" for record in records)
