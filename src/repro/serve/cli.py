"""``tango-serve``: the long-running controller service CLI.

Examples::

    # 100k flows against switch3's real TCAM budget, with telemetry:
    python -m repro.serve.cli --profile switch3 --arrivals 100000 \\
        --churn-interval 400 --telemetry out/serve

    # Infer the cache policy first (Algorithm 2) and serve with it:
    python -m repro.serve.cli --profile switch1 --arrivals 20000 --infer

    # Replay-check: two same-seed runs must be byte-identical:
    python -m repro.serve.cli --arrivals 5000 --verify-determinism

Exit codes: 0 success, 1 race findings under ``--sanitize``, 2
determinism divergence under ``--verify-determinism``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.obs import Instruments, MetricsRegistry
from repro.serve.loop import ServeConfig, ServeLoop, policy_from_model
from repro.serve.stream import StreamConfig
from repro.switches.profiles import VENDOR_PROFILES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-serve",
        description="serve a sustained flow-request stream against finite TCAM",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(VENDOR_PROFILES),
        default="switch3",
        help="switch profile to serve against (default: switch3)",
    )
    parser.add_argument(
        "--arrivals", type=int, default=100_000, help="flow requests to serve"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--tenants", type=int, default=32, help="tenant count")
    parser.add_argument(
        "--destinations",
        type=int,
        default=128,
        help="destinations per tenant (max 4096)",
    )
    parser.add_argument(
        "--rate", type=float, default=2.0, help="mean arrivals per virtual ms"
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1, help="destination popularity skew"
    )
    parser.add_argument(
        "--tenant-skew", type=float, default=0.6, help="tenant mix skew"
    )
    parser.add_argument(
        "--churn-interval",
        type=float,
        default=0.0,
        help="rotate tenant working sets every N virtual ms (0 = no churn)",
    )
    parser.add_argument(
        "--batch", type=int, default=32, help="install batch size"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="rule-budget override (default: the profile's bounded capacity)",
    )
    parser.add_argument(
        "--admission-threshold",
        type=int,
        default=1,
        help="packet-ins before a rule is installed (FDRC admission)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=2000.0,
        help="expire rules idle this many virtual ms",
    )
    parser.add_argument(
        "--aggregate-min",
        type=int,
        default=4,
        help="minimum compatible /32 siblings before wildcard aggregation",
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help="run switch inference first and evict with the inferred policy "
        "(Algorithm 2 output) and inferred fast-table budget",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run maintenance events under the race sanitizer (exit 1 on findings)",
    )
    parser.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run twice with the same seed; exit 2 unless results, telemetry, "
        "and final table state are byte-identical",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="collect continuous telemetry; writes PATH.telemetry.jsonl "
        "and PATH.alerts.jsonl",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a markdown serving report to PATH",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    return parser


def _make_collector(args):
    if not args.telemetry:
        return None
    from repro.obs.slo import DriftFeed, SloPolicy, default_slo_targets
    from repro.obs.telemetry import TelemetryCollector

    collector = TelemetryCollector(interval_ms=5.0, window_ms=50.0)
    collector.add_policy(SloPolicy(default_slo_targets()))
    collector.add_policy(DriftFeed())
    return collector


def _build_config(args) -> ServeConfig:
    """The run's config; raises :class:`ValueError` on an out-of-range knob."""
    return ServeConfig(
        stream=StreamConfig(
            arrivals=args.arrivals,
            tenants=args.tenants,
            destinations_per_tenant=args.destinations,
            rate_per_ms=args.rate,
            zipf_skew=args.zipf,
            tenant_skew=args.tenant_skew,
            churn_interval_ms=args.churn_interval,
            seed=args.seed,
        ),
        batch_size=args.batch,
        capacity=args.capacity,
        admission_threshold=args.admission_threshold,
        idle_timeout_ms=args.idle_timeout,
        aggregate_min_rules=args.aggregate_min,
    )


def _run_once(args, config, profile):
    """One full serving run; returns (result, collector, races)."""
    policy = None
    if args.infer:
        from repro.core.inference import SwitchInferenceEngine

        model = SwitchInferenceEngine(profile, seed=args.seed).infer()
        policy = policy_from_model(model)
        if config.capacity is None:
            config = replace(config, capacity=model.fast_table_size)
    sanitizer = None
    if args.sanitize:
        from repro.analysis.racecheck import RaceSanitizer

        sanitizer = RaceSanitizer()
    collector = _make_collector(args)
    loop = ServeLoop(
        config,
        profile,
        policy=policy,
        instruments=Instruments(metrics=MetricsRegistry(), telemetry=collector),
        sanitizer=sanitizer,
    )
    result = loop.run()
    races = sanitizer.check() if sanitizer is not None else None
    return result, collector, races


def _signature(result, collector):
    """Everything two same-seed runs must agree on, as comparable bytes."""
    parts = [
        json.dumps(result.to_dict(), sort_keys=True),
        repr(result.table_signature),
    ]
    if collector is not None:
        from repro.obs.slo import alerts_jsonl_lines
        from repro.obs.telemetry import telemetry_jsonl_lines

        parts.append("\n".join(telemetry_jsonl_lines(collector.samples)))
        parts.append("\n".join(alerts_jsonl_lines(collector.alerts)))
    return "\x00".join(parts)


def _render_text(args, result, collector, races, out) -> None:
    cache = result.cache
    print(
        f"serve [{args.profile}] seed {args.seed}: "
        f"{result.arrivals} arrivals over {result.duration_ms:.1f} virtual ms",
        file=out,
    )
    print(f"  requests/sec     : {result.requests_per_sec:.1f} (virtual)", file=out)
    summary = result.to_dict()
    print(
        f"  install latency  : p50={summary['install_p50_ms']}"
        f" p99={summary['install_p99_ms']} ms",
        file=out,
    )
    print(
        f"  cache            : {cache.hits} hits / {cache.lookups} lookups "
        f"({100.0 * cache.hit_rate:.1f}%), {cache.wildcard_hits} via wildcards",
        file=out,
    )
    print(
        f"  table churn      : {cache.installs} installs, "
        f"{cache.evictions} evictions, {cache.expirations} expirations, "
        f"{cache.aggregations} aggregations ({cache.aggregated_rules} rules folded)",
        file=out,
    )
    print(
        f"  admission        : {cache.punts} punts, {cache.coalesced} coalesced, "
        f"{cache.rejected} rejected",
        file=out,
    )
    occupancy = result.occupancy
    layers = ", ".join(
        f"{layer['name']}={layer['entries']}"
        + (f" ({100.0 * layer['ratio']:.0f}%)" if layer["ratio"] is not None else "")
        for layer in occupancy.get("layers", [])
    )
    print(f"  final occupancy  : {occupancy.get('total')} rules [{layers}]", file=out)
    print(
        f"  batches          : {result.batches} "
        f"({result.rounds} scheduler rounds, "
        f"{result.maintenance_ticks} maintenance ticks)",
        file=out,
    )
    if collector is not None:
        stats = collector.stats()
        print(
            f"  telemetry        : {stats['samples']} samples, "
            f"{stats['ticks']} ticks, {len(collector.alerts)} alerts",
            file=out,
        )
    if races is not None:
        print(
            f"  race check       : {races.accesses} accesses over "
            f"{races.events} events, {len(races.findings)} finding(s)",
            file=out,
        )


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    profile = VENDOR_PROFILES[args.profile]
    try:
        config = _build_config(args)
    except ValueError as exc:
        parser.error(str(exc))

    result, collector, races = _run_once(args, config, profile)

    if args.verify_determinism:
        second, recollector, _ = _run_once(args, config, profile)
        if _signature(result, collector) != _signature(second, recollector):
            print("determinism FAILED: two same-seed runs diverged", file=out)
            return 2
        if not args.json:
            print(
                "determinism ok: two same-seed runs produced identical "
                "results, telemetry, and final table state",
                file=out,
            )

    if args.json:
        payload = {"serve": result.to_dict()}
        if collector is not None:
            payload["telemetry"] = collector.stats()
        if races is not None:
            payload["races"] = races.summary()
        print(json.dumps(payload, indent=2), file=out)
    else:
        _render_text(args, result, collector, races, out)

    if collector is not None:
        from repro.obs.slo import write_alerts_jsonl
        from repro.obs.telemetry import write_telemetry_jsonl

        telemetry_path = f"{args.telemetry}.telemetry.jsonl"
        alerts_path = f"{args.telemetry}.alerts.jsonl"
        write_telemetry_jsonl(collector.samples, telemetry_path)
        write_alerts_jsonl(collector.alerts, alerts_path)
        if not args.json:
            print(f"telemetry samples written to {telemetry_path}", file=out)
            print(f"telemetry alerts written to {alerts_path}", file=out)

    if args.report:
        from repro.tools.report import render_serve

        lines = ["# Tango serving report", ""]
        lines.extend(render_serve(result.to_dict(), heading="## Sustained serving"))
        lines.append("")
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        if not args.json:
            print(f"serving report written to {args.report}", file=out)

    return 1 if races is not None and races.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
