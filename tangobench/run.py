"""tangobench: the paper's infer -> install -> serve loop as one benchmark.

Run from the repository root:

    python3 tangobench/run.py --workload serve_churn --seed 1 --seconds 15 --trace 0

Workloads: infer_vendors, install_classbench, install_prefix, serve_churn
(see workloads.py and README.md).  Each run is one process, no threads,
a closed loop: the next op starts when the previous one returns.  Setup
(input generation, the inference the workload's controller needs, one
untimed warm-up op) is repeated ``SETUP_REPEATS`` times and its median
reported.  The timed phase then runs whole cycles of the input set
until ``--seconds`` would be exceeded (at least one cycle), checking
every op's outputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced half and one traced half (layertrace.py) and prints the
per-layer metrics plus the tracing overhead, writing the spans to
``.tangobench/``.  Host times are scaled to a reference host speed
(hosttime.py).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("virtual_ms_per_op", "ms"),
)

#: Layers whose self time the traced run reports, per op.
SELF_TIME_LAYERS = (
    "core.planner",
    "core.requests",
    "networkx",
    "core.scheduler",
    "tables.stack",
    "tables.tcam",
    "core.probing",
    "core.inference.size",
    "core.inference.behavior",
    "core.inference.policy",
    "core.inference.latency_curves",
    "openflow.channel",
    "switches.base",
    "switches.ovs",
    "sim.events",
    "serve.cache",
    "serve.loop",
    "unattributed",
)

PER_LAYER = tuple((f"{layer}.self_ms", "ms") for layer in SELF_TIME_LAYERS) + (
    ("core.planner.plan_calls", "count"),
    ("core.planner.memo_hit_ratio", "ratio"),
    ("core.requests.edges", "count"),
    ("core.requests.dag_ops", "count"),
    ("networkx.calls", "count"),
    ("core.scheduler.rounds", "count"),
    ("core.scheduler.issued", "count"),
    ("tables.stack.inserts", "count"),
    ("tables.stack.lookups", "count"),
    ("tables.tcam.shifts_per_add", "shifts/add"),
    ("core.probing.probe_ops", "count"),
    ("core.inference.size.error_pct", "%"),
    ("openflow.channel.flow_mods", "count"),
    ("sim.events.events", "count"),
    ("serve.cache.installs", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.punts", "count"),
    ("serve.cache.aggregations", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.loop.virtual_install_p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

#: Per-op counters that the workloads' output checks report directly.
FACT_COUNTERS = (
    "core.planner.plan_calls",
    "core.scheduler.rounds",
    "core.probing.probe_ops",
    "serve.cache.installs",
    "serve.cache.evictions",
    "serve.cache.punts",
    "serve.cache.aggregations",
)

#: Per-op counters counted as calls into wrapped entry points.
CALL_COUNTERS = {
    "core.scheduler.issued": ("core.scheduler.NetworkExecutor.issue",),
    "tables.stack.inserts": ("tables.stack.RankedTableStack.insert",),
    "tables.stack.lookups": (
        "tables.stack.RankedTableStack.match_packet",
        "tables.stack.RankedTableStack.lookup_exact",
    ),
    "openflow.channel.flow_mods": ("openflow.channel.ControlChannel.send_flow_mod",),
}


@dataclass
class Failure:
    text: str


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception:  # an op that raises is a failed op, not a failed run
        return Failure(traceback.format_exc())


@dataclass
class OpRecord:
    index: int
    sample: int
    outcome: Optional[object]
    problems: List[str]
    layers: Optional[Dict] = None
    counts: Dict[str, float] = field(default_factory=dict)


def set_up(workload_cls, seed: int, tiny: bool):
    """Setup repeated; returns the last workload, its warm-up outcome,
    and the setups' median scaled host time."""
    from hosttime import HostTimer

    with HostTimer() as timer:
        for _ in range(1 if tiny else SETUP_REPEATS):
            workload = workload_cls(seed, tiny)
            warmup, _ = timer.measure(_guarded, _set_up_and_warm_up, workload)
            if isinstance(warmup, Failure):
                raise RuntimeError(f"setup failed:\n{warmup.text}")
            gc.collect()
    return workload, warmup, statistics.median(timer.scaled_s)


def _set_up_and_warm_up(workload):
    workload.setup()
    item = workload.items[workload.warmup_index]
    return workload.check(item, workload.run(item))


def run_cycles(workload, seconds: float, references: Dict[int, str], tracer=None):
    """Whole cycles over the input set until ``seconds`` would be
    exceeded (at least one).  Returns the timer, op records and cycles."""
    from hosttime import HostTimer

    records: List[OpRecord] = []
    start = time.perf_counter()
    cycles = 0
    with HostTimer() as timer:
        while True:
            for index, item in enumerate(workload.items):
                records.append(_run_op(workload, index, item, timer, references, tracer))
                # Untimed, so that no op pays for its predecessor's garbage
                # and peak memory does not hinge on when collections ran.
                gc.collect()
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed * (cycles + 1) / cycles > seconds:
                break
    return timer, records, cycles


def _run_op(workload, index: int, item, timer, references: Dict[int, str], tracer) -> OpRecord:
    """One timed op, then its (untimed) output checks."""
    if tracer is not None:
        tracer.begin_op()
    artifacts, sample = timer.measure(_guarded, workload.run, item)
    record = OpRecord(index, sample, None, [])
    if tracer is not None:
        record.layers = tracer.end_op()
    if isinstance(artifacts, Failure):
        record.problems.append(artifacts.text)
        return record
    outcome = _guarded(workload.check, item, artifacts)
    if tracer is not None:
        record.counts = tracer.registered_counts()
    if isinstance(outcome, Failure):
        record.problems.append(outcome.text)
        return record
    record.outcome = outcome
    record.problems.extend(outcome.problems)
    if outcome.signature != references.setdefault(index, outcome.signature):
        record.problems.append(f"input {index}: a repeated op gave another output")
    return record


def _first_outcomes(records: List[OpRecord]) -> List:
    """One outcome per input: the simulated figures of the fixed set."""
    first: Dict[int, object] = {}
    for record in records:
        if record.outcome is not None:
            first.setdefault(record.index, record.outcome)
    return list(first.values())


def _throughput(times_s: List[float], records: List[OpRecord]) -> float:
    """Work units of one cycle over the sum of each input's median op
    time, so a burst of host contention during one op does not count."""
    times: Dict[int, List[float]] = {}
    units: Dict[int, int] = {}
    for record in records:
        times.setdefault(record.index, []).append(times_s[record.sample])
        if record.outcome is not None:
            units[record.index] = record.outcome.units
    return sum(units.values()) / sum(statistics.median(t) for t in times.values())


def end_to_end(setup_s: float, timer, records: List[OpRecord]) -> Dict[str, float]:
    outcomes = _first_outcomes(records)
    return {
        "setup_s": setup_s,
        "throughput_per_s": _throughput(timer.scaled_s, records),
        "latency_ms_p50": statistics.median(timer.scaled_s[r.sample] for r in records)
        * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_ms_per_op": statistics.fmean(o.virtual_ms for o in outcomes)
        if outcomes
        else 0.0,
    }


def per_layer(workload, timer, records: List[OpRecord], overhead_pct: float) -> Dict[str, float]:
    ops = len(records)

    def mean(values) -> float:
        return sum(values) / ops

    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms"] = mean(
            r.layers["self_s"].get(layer, 0.0) * timer.factors[r.sample] * 1000.0
            for r in records
        )
    facts = [r.outcome.facts if r.outcome is not None else {} for r in records]
    for name in FACT_COUNTERS:
        metrics[name] = mean(f.get(name, 0) for f in facts)
    for name, keys in CALL_COUNTERS.items():
        metrics[name] = mean(r.layers["calls"].get(key, 0) for r in records for key in keys)
    for name in ("core.requests.edges", "core.requests.dag_ops", "sim.events.events"):
        metrics[name] = mean(r.counts.get(name, 0) for r in records)
    metrics["networkx.calls"] = mean(r.layers["spans"].get("networkx", 0) for r in records)
    memo = sum(f.get("memo_hits", 0) for f in facts)
    memo_total = memo + sum(f.get("memo_misses", 0) for f in facts)
    metrics["core.planner.memo_hit_ratio"] = memo / memo_total if memo_total else 0.0
    adds = sum(r.counts.get("adds", 0) for r in records)
    shifts = sum(r.counts.get("shifts", 0) for r in records)
    metrics["tables.tcam.shifts_per_add"] = shifts / adds if adds else 0.0
    set_facts = workload.set_facts(_first_outcomes(records))
    for name in (
        "core.inference.size.error_pct",
        "serve.cache.hit_rate",
        "serve.loop.virtual_install_p99_ms",
    ):
        metrics[name] = set_facts.get(name, 0.0)
    metrics["trace.spans"] = mean(sum(r.layers["spans"].values()) for r in records)
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _report_problems(records: List[OpRecord]) -> int:
    failed = [r for r in records if r.problems]
    for record in failed[:5]:
        print(f"op on input {record.index} failed:", *record.problems, sep="\n  ", file=sys.stderr)
    return len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tangobench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test size: a subset of inputs, one setup"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"tangobench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload, warmup, setup_s = set_up(WORKLOADS[args.workload], args.seed, args.tiny)
    # Setup's long-lived objects drop out of later collections, so the
    # collection after each op costs only that op's garbage.
    gc.freeze()
    references = {workload.warmup_index: warmup.signature}
    warmup_failed = bool(warmup.problems)
    if warmup_failed:
        print("warm-up op failed:", *warmup.problems, sep="\n  ", file=sys.stderr)

    info: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
        },
    }
    if args.trace:
        from layertrace import LayerTracer

        base_timer, base_records, _ = run_cycles(workload, args.seconds / 2, references)
        tracer = LayerTracer()
        tracer.install()
        timer, records, cycles = run_cycles(
            workload, args.seconds / 2, references, tracer=tracer
        )
        traced = _throughput(timer.scaled_s, records)
        overhead = 100.0 * (1.0 - traced / _throughput(base_timer.scaled_s, base_records))
        metrics = per_layer(workload, timer, records, overhead)
        spans_dir = ROOT / ".tangobench"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.spans.tsv"
        info["spans"] = {
            "file": str(spans_path.relative_to(ROOT)),
            "count": tracer.write_spans(spans_path),
        }
        records = base_records + records
        declared = PER_LAYER
    else:
        timer, records, cycles = run_cycles(workload, args.seconds, references)
        metrics = end_to_end(setup_s, timer, records)
        declared = END_TO_END
        info["raw"] = {
            "latency_ms_p50": statistics.median(timer.raw_s) * 1000.0,
            "throughput_per_s": _throughput(timer.raw_s, records),
        }
        if len(records) >= 100:  # so that ten samples lie beyond it
            scaled = [timer.scaled_s[r.sample] for r in records]
            info["latency_ms_p90"] = statistics.quantiles(scaled, n=10)[-1] * 1000.0
    info["ops"] = len(records)
    info["cycles"] = cycles
    info["calibration_ms_median"] = statistics.median(timer.calibrations_ms)
    print(json.dumps(info))

    failed = _report_problems(records) + warmup_failed
    result = {
        "correct": failed == 0,
        "attempted": len(records) + 1,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
