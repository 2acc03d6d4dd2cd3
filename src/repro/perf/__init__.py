"""Deterministic op counts of the scheduler/TCAM hot paths.

The bench cases in :mod:`repro.perf.harness` run the code paths this
reproduction leans on at scale -- incremental DAG scheduling, shift
accounting, prefix lookahead, fleet inference, serving -- and count
each one's deterministic operations; ``tests/test_perf_harness.py``
asserts every count against ``benchmarks/perf_baseline.json``.
Nothing here reads the host clock; wall time is measured by
``tangobench/``.
"""

from repro.perf.harness import BenchRecord

__all__ = ["BenchRecord"]
