"""Tests for ``benchmarks/pairs.py`` against stand-in tangobench checkouts."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "pairs.py"

#: A stand-in ``tangobench/run.py``: logs which checkout ran, then prints a
#: host line and a result line whose values come from the checkout's
#: ``values.json``, one per run.
FAKE_RUN = '''
import json
from pathlib import Path

checkout = Path(__file__).resolve().parent.parent
log = checkout.parent / "order.log"
runs = log.read_text().split().count(checkout.name) if log.exists() else 0
with log.open("a") as fh:
    fh.write(checkout.name + "\\n")
value = json.loads((checkout / "values.json").read_text())[runs]
print(json.dumps({"host": {"nproc": 1, "cpu": "stand-in", "python": "3"}}))
metrics = {
    "throughput_per_s": {"value": value, "unit": "1/s"},
    "latency_ms_p50": {"value": 100.0 / value, "unit": "ms"},
}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
'''


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name, values):
    checkout = root / name
    (checkout / "tangobench").mkdir(parents=True)
    (checkout / "tangobench" / "run.py").write_text(FAKE_RUN)
    (checkout / "values.json").write_text(json.dumps(values))
    declared = [
        {"name": "throughput_per_s", "better": "higher"},
        {"name": "latency_ms_p50", "better": "lower"},
    ]
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": declared}))
    return checkout


def test_pairs_alternate_and_append_one_record(tmp_path):
    pairs = _load_pairs()
    parent = _checkout(tmp_path, "parent", [10.0, 11.0, 12.0])
    change = _checkout(tmp_path, "change", [12.0, 11.0, 13.0])
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--label", "x"]
    assert pairs.main(argv + ["--out", str(out)]) == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    (record,) = json.loads(out.read_text())
    assert (record["label"], record["workload"], record["seed"], record["pairs"]) == (
        "x",
        "w",
        1,
        3,
    )
    assert record["host"]["cpu"] == "stand-in"
    assert record["failed"] == {"parent": 0, "change": 0}
    throughput = record["metrics"]["throughput_per_s"]
    # The tied second pair counts for neither side.
    assert throughput["pairs_won"] == 2
    assert record["metrics"]["latency_ms_p50"]["pairs_won"] == 2
    assert throughput["parent"] == {"median": 11.0, "iqr": 1.0, "runs": [10.0, 11.0, 12.0]}
    assert throughput["change"]["runs"] == [12.0, 11.0, 13.0]

    (tmp_path / "order.log").unlink()
    assert pairs.main(argv + ["--out", str(out), "--pairs", "1"]) == 0
    assert [r["pairs"] for r in json.loads(out.read_text())] == [3, 1]


def test_pairs_reports_a_failed_run(tmp_path):
    pairs = _load_pairs()
    parent = _checkout(tmp_path, "parent", [])
    change = _checkout(tmp_path, "change", [])
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--label", "x", "--out", str(out)]
    assert pairs.main(argv) == 1
    (record,) = json.loads(out.read_text())
    assert (record["pairs"], record["metrics"]) == (0, {})
    assert (record["aborted"]["pair"], record["aborted"]["side"]) == (1, "parent")
    assert "tangobench failed" in record["aborted"]["error"]


def test_pairs_keeps_completed_pairs_when_a_run_fails(tmp_path):
    pairs = _load_pairs()
    # Pair 2 runs the change first; its second run has no value and fails.
    parent = _checkout(tmp_path, "parent", [10.0, 11.0])
    change = _checkout(tmp_path, "change", [12.0])
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--label", "x"]
    assert pairs.main(argv + ["--out", str(out)]) == 1
    assert (tmp_path / "order.log").read_text().split() == ["parent", "change", "change"]
    (record,) = json.loads(out.read_text())
    assert record["pairs"] == 1
    assert (record["aborted"]["pair"], record["aborted"]["side"]) == (2, "change")
    throughput = record["metrics"]["throughput_per_s"]
    assert (throughput["parent"]["runs"], throughput["change"]["runs"]) == ([10.0], [12.0])
    assert throughput["pairs_won"] == 1
