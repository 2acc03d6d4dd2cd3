"""The ``tango-bench`` command-line tool.

Runs the hot-path micro-benchmark suite (:mod:`repro.perf.harness`),
prints an op-count table, writes ``BENCH_scheduler.json``, and exits 1
on an op-count regression against ``benchmarks/perf_baseline.json``.

Usage::

    tango-bench                      # full sizes (1k / 5k / 20k)
    tango-bench --quick              # CI smoke: 1k only
    tango-bench --update-baseline    # refresh the checked-in op counts
    python -m repro.perf.cli --quick --output BENCH_scheduler.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.harness import (
    CASE_NAMES,
    baseline_from_records,
    compare_to_baseline,
    records_to_report,
    run_suite,
)

DEFAULT_BASELINE = Path("benchmarks") / "perf_baseline.json"
DEFAULT_OUTPUT = "BENCH_scheduler.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-bench",
        description="Count and gate the ops of the scheduler/TCAM hot paths.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke sizes only (n=1000); what the CI perf-smoke job runs",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="explicit request/rule counts (overrides --quick)",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"trajectory JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="op-count baseline JSON; gate is skipped when missing",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's op counts to the baseline and exit 0",
    )
    parser.add_argument(
        "--cases",
        nargs="+",
        default=None,
        choices=sorted(CASE_NAMES),
        metavar="CASE",
        help=f"run only these cases (default: all of {sorted(CASE_NAMES)})",
    )
    return parser


def _print_table(records, out) -> None:
    header = f"{'case':<20} {'n':>6} {'ops':>12}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for r in records:
        print(f"{r.case:<20} {r.n:>6} {r.ops:>12}", file=out)


def run_bench(args, out) -> int:
    records = run_suite(sizes=args.sizes, quick=args.quick, cases=args.cases)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline_from_records(records), indent=2, sort_keys=True)
            + "\n"
        )
        _print_table(records, out)
        print(f"baseline updated: {baseline_path}", file=out)
        return 0

    baseline = {}
    gated = baseline_path.is_file()
    if gated:
        baseline = json.loads(baseline_path.read_text())
    regressions = compare_to_baseline(records, baseline)
    report = records_to_report(
        records,
        regressions,
        quick=bool(args.quick and not args.sizes),
        baseline_path=str(baseline_path) if gated else None,
    )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    _print_table(records, out)
    print(f"\ntrajectory written: {args.output}", file=out)
    if not gated:
        print(f"baseline {baseline_path} missing; regression gate skipped", file=out)
    for regression in regressions:
        ratio = regression["ratio"]
        detail = f"{ratio}x > threshold" if ratio is not None else "baseline is 0 ops"
        print(
            f"REGRESSION {regression['key']}: {regression['ops']} ops vs "
            f"baseline {regression['baseline_ops']} ({detail})",
            file=out,
        )
    if regressions:
        return 1
    print("perf gate ok", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    return run_bench(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
