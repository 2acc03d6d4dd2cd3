"""Smoke test: every workload at tiny size, untraced and traced.

Asserts that the result line carries every metric BENCHMARK.json
declares, with its unit, and that no op fails on the default seed.
Run from anywhere:

    python3 tangobench/smoke_test.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tangobench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_workload_prints_every_metric_without_errors() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            assert result["failed"] == 0 and result["correct"], (workload, trace)
            expected = {m["name"]: m["unit"] for m in declared}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
            print(f"ok {workload} trace={trace}")


if __name__ == "__main__":
    test_every_workload_prints_every_metric_without_errors()
