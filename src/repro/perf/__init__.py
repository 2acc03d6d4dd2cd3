"""Deterministic op-count gate for the scheduler/TCAM hot paths.

``tango-bench`` runs the code paths this reproduction leans on at scale
-- incremental DAG scheduling, shift accounting, prefix lookahead,
fleet inference, serving -- counts each one's deterministic operations,
and gates CI on them against ``benchmarks/perf_baseline.json`` (see
:mod:`repro.perf.harness`).  Nothing here reads the host clock; wall
time is measured by ``tangobench/``.
"""

from repro.perf.harness import (
    REGRESSION_THRESHOLD,
    BenchRecord,
    baseline_from_records,
    compare_to_baseline,
    run_suite,
)

__all__ = [
    "BenchRecord",
    "REGRESSION_THRESHOLD",
    "baseline_from_records",
    "compare_to_baseline",
    "run_suite",
]
