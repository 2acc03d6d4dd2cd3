"""Alternating parent/change pairs through tangobench, appended to a trajectory.

Runs two sibling checkouts (for example a ``git archive`` of the parent
commit and one of the change, side by side in one directory, so both
trees sit at the same depth of the same filesystem) alternately through
``tangobench/run.py --trace 0`` at tangobench's own run length.  Pair
``i`` runs the parent first when ``i`` is even and the change first
when it is odd.  Each run's last stdout line is its JSON result.  The
script then appends one record to the trajectory file
(``BENCH_tangobench.json`` at the repository root by default): host,
``cpu_count``, Python version, workload, seed, pair count, each
end-to-end metric's median and interquartile range per side with every
run's value in pair order, and the pairs the change won.  A pair is won
when the change's value is better in the direction ``BENCHMARK.json``
declares; ties count for neither side.

If a run fails, the record still goes in, holding the pairs completed
before it and an ``aborted`` entry naming the failed side, and the
script exits 1.

Usage, from the repository root::

    python3 benchmarks/pairs.py ../parent ../change --workload serve_churn \\
        --seed 1 --pairs 10 --label "what the change does"

Only the standard library is used, and each run is one child process
at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> Tuple[dict, dict]:
    """One tangobench run in ``checkout``: its host line and its result line."""
    argv = [
        sys.executable,
        "tangobench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        last = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(
            f"tangobench failed in {checkout} (exit {done.returncode}): {last[0]}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    """Median and interquartile range (inclusive quartiles) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def summarise(
    results: Dict[str, List[dict]], better: Dict[str, str]
) -> Dict[str, dict]:
    """Per-metric spread of each side plus the pairs the change won."""
    summary = {}
    for name, direction in better.items():
        values = {
            side: [run["metrics"][name]["value"] for run in results[side]]
            for side in SIDES
        }
        sign = 1.0 if direction == "higher" else -1.0
        won = sum(
            1
            for parent, change in zip(values["parent"], values["change"])
            if sign * (change - parent) > 0
        )
        summary[name] = {
            "unit": results["parent"][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": {**spread(values["parent"]), "runs": values["parent"]},
            "change": {**spread(values["change"]), "runs": values["change"]},
            "pairs_won": won,
        }
    return summary


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list at ``path`` (created if missing)."""
    trajectory = json.loads(path.read_text()) if path.exists() else []
    trajectory.append(record)
    staging = path.with_suffix(path.suffix + ".tmp")
    staging.write_text(json.dumps(trajectory, indent=2) + "\n")
    os.replace(staging, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pairs", description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True, help="what the change does")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tangobench.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "tangobench" / "run.py").is_file():
            parser.error(f"no tangobench/run.py under {checkout}")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}

    results: Dict[str, List[dict]] = {side: [] for side in SIDES}
    checkouts = {"parent": args.parent, "change": args.change}
    host: dict = {}
    aborted = None
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        try:
            for side in order:
                info, result = run_once(checkouts[side], args.workload, args.seed)
                host = host or info["host"]
                results[side].append(result)
        except (RuntimeError, ValueError) as error:
            aborted = {"pair": index + 1, "side": side, "error": str(error)}
            print(error, file=sys.stderr)
            del results[order[0]][index:]  # drop the half-made pair
            break
        parent, change = (results[side][-1]["metrics"] for side in SIDES)
        print(
            f"pair {index + 1}/{args.pairs}: "
            + "  ".join(
                f"{name} {parent[name]['value']:.4g} -> {change[name]['value']:.4g}"
                for name in better
            ),
            flush=True,
        )

    completed = len(results["parent"])
    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "pairs": completed,
        "host": host,
        "cpu_count": os.cpu_count(),
        "failed": {side: sum(run["failed"] for run in results[side]) for side in SIDES},
        "metrics": summarise(results, better) if completed else {},
    }
    if aborted:
        record["aborted"] = aborted
    append_record(args.out, record)
    for name, row in record["metrics"].items():
        print(
            f"{name:>18}: parent {row['parent']['median']:.4g} "
            f"(IQR {row['parent']['iqr']:.3g})  change {row['change']['median']:.4g} "
            f"(IQR {row['change']['iqr']:.3g})  won {row['pairs_won']}/{completed}"
        )
    return 1 if aborted else 0


if __name__ == "__main__":
    sys.exit(main())
