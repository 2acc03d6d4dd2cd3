"""The ``tango-probe`` command-line tool.

Probes a (simulated) switch profile and prints an inference report:
flow-table layers and sizes, control-plane behaviour classification,
cache policy, and operation latency curves.

Usage::

    python -m repro.tools.cli probe --profile switch2
    python -m repro.tools.cli probe --profile switch1 --policy --seed 7
    python -m repro.tools.cli infer --profile switch2 --fleet 16 --max-in-flight 8
    python -m repro.tools.cli profiles

``infer`` is an alias of ``probe``; with ``--fleet N`` the command runs
the event-driven fleet engine (``repro.core.fleet``) over N switches
concurrently in virtual time and reports makespan vs. the one-at-a-time
sum plus model-cache statistics.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.inference import SwitchInferenceEngine
from repro.switches.profiles import VENDOR_PROFILES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-probe",
        description="Infer switch properties with Tango probing patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser(
        "probe",
        aliases=["infer"],
        help="probe one vendor profile (or a fleet with --fleet)",
    )
    probe.add_argument(
        "--profile",
        required=True,
        choices=sorted(VENDOR_PROFILES),
        help="vendor profile to probe",
    )
    probe.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    probe.add_argument(
        "--fleet",
        type=int,
        metavar="N",
        help="infer a fleet of N switches concurrently in virtual time "
        "(cycling --fleet-profiles, default just --profile)",
    )
    probe.add_argument(
        "--fleet-profiles",
        metavar="A,B,...",
        help="comma-separated vendor profiles cycled to fill the fleet "
        "(defaults to --profile)",
    )
    probe.add_argument(
        "--max-in-flight",
        type=int,
        metavar="K",
        help="probe at most K fleet members concurrently (default unbounded)",
    )
    probe.add_argument(
        "--no-fleet-cache",
        action="store_true",
        help="disable the profile-fingerprint model cache for the fleet run",
    )
    probe.add_argument(
        "--fault-scenario",
        metavar="NAME",
        help="drive the fleet under a named fault scenario from "
        "repro.netem.scenarios.FAULT_SCENARIOS (fleet mode only)",
    )
    probe.add_argument(
        "--policy",
        action="store_true",
        help="also run the cache-policy probe (Algorithm 2)",
    )
    probe.add_argument(
        "--max-rules",
        type=int,
        default=8192,
        help="size-probe cap for switches that never reject adds",
    )
    probe.add_argument(
        "--json",
        action="store_true",
        help="emit the inferred model as JSON instead of a report",
    )
    probe.add_argument(
        "--trace",
        metavar="PATH",
        help="record a telemetry trace; writes PATH.jsonl, "
        "PATH.chrome.json (load in Perfetto/chrome://tracing), and "
        "PATH.prom (metrics dump)",
    )

    sub.add_parser("profiles", help="list the available vendor profiles")

    schedule = sub.add_parser(
        "schedule",
        help="run a testbed scenario and compare schedulers",
    )
    schedule.add_argument(
        "--scenario",
        choices=("lf", "te1", "te2"),
        default="lf",
        help="link failure or one of the two traffic-engineering mixes",
    )
    schedule.add_argument("--flows", type=int, default=200, help="testbed flow count")
    schedule.add_argument("--requests", type=int, default=400, help="TE request count")
    schedule.add_argument("--seed", type=int, default=0)
    schedule.add_argument(
        "--strict",
        action="store_true",
        help="statically verify the request DAG (repro.analysis) and "
        "abort on ERROR diagnostics before scheduling",
    )
    schedule.add_argument(
        "--trace",
        metavar="PATH",
        help="record a telemetry trace of every arm; writes PATH.jsonl, "
        "PATH.chrome.json, and PATH.prom",
    )

    from repro.netem.scenarios import FAULT_SCENARIOS

    faults = sub.add_parser(
        "faults",
        help="run inference + scheduling under a named fault scenario",
    )
    faults.add_argument(
        "--scenario",
        choices=sorted(FAULT_SCENARIOS),
        default="chaos",
        help="fault preset from repro.netem.scenarios.FAULT_SCENARIOS",
    )
    faults.add_argument(
        "--profile",
        choices=sorted(VENDOR_PROFILES),
        default="switch2",
        help="vendor profile for the faulted size probe",
    )
    faults.add_argument("--seed", type=int, default=0, help="fault-plan and probe seed")
    faults.add_argument(
        "--flows", type=int, default=60, help="testbed flow count for the LF schedule"
    )
    faults.add_argument(
        "--verify-determinism",
        action="store_true",
        help="run the whole scenario twice and require identical "
        "size estimates and schedules",
    )
    faults.add_argument(
        "--verify-noop",
        action="store_true",
        help="also assert a zero-fault injector is bit-identical to none",
    )
    faults.add_argument(
        "--trace",
        metavar="PATH",
        help="record a telemetry trace; writes PATH.jsonl, "
        "PATH.chrome.json, and PATH.prom",
    )
    faults.add_argument(
        "--telemetry",
        metavar="PATH",
        help="attach a continuous-telemetry collector with the default "
        "SLO burn-rate policy; writes "
        "PATH.telemetry.jsonl and PATH.alerts.jsonl "
        "(with --verify-determinism, both runs' streams must be "
        "byte-identical)",
    )
    return parser


def _print_report(model, out) -> None:
    print(f"switch profile : {model.name}", file=out)
    size = model.size_probe
    print(f"table layers   : {size.num_layers}", file=out)
    for index, layer in enumerate(size.layers):
        shown = "unbounded" if layer.estimated_size is None else layer.estimated_size
        print(
            f"  layer {index}: size {shown}, mean RTT {layer.mean_rtt_ms:.2f} ms",
            file=out,
        )
    behavior = model.behavior_probe
    if behavior is not None:
        kind = (
            "traffic-driven (microflow caching)"
            if behavior.traffic_driven_caching
            else "traffic-independent"
        )
        print(f"rule placement : {kind}", file=out)
        print(
            f"  first-packet penalty {behavior.first_packet_penalty_ms:.2f} ms, "
            f"control path {behavior.control_path_ms:.2f} ms",
            file=out,
        )
    if model.policy_probe is not None:
        terms = " > ".join(
            f"{a.value}({'incr' if d.value > 0 else 'decr'})"
            for a, d in model.policy_probe.terms
        )
        print(f"cache policy   : {terms}", file=out)
    if model.latency_curves:
        print("latency curves : t(n) = a*n + b*n^2  (ms)", file=out)
        for (op, pattern), curve in sorted(
            model.latency_curves.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
        ):
            print(
                f"  {op.value:>3} / {pattern.value:<10} a={curve.linear_ms:8.4f}  "
                f"b={curve.quadratic_ms:10.6f}",
                file=out,
            )


def _make_instruments(args):
    """A tracer and a metrics registry for ``--trace``, else no sinks."""
    from repro.obs import NULL_INSTRUMENTS, Instruments, MetricsRegistry, Tracer

    if getattr(args, "trace", None):
        return Instruments(tracer=Tracer(), metrics=MetricsRegistry())
    return NULL_INSTRUMENTS


def _write_trace_outputs(args, instruments, out) -> None:
    """Write the three ``--trace`` artifacts next to the given base path."""
    if not getattr(args, "trace", None):
        return
    from repro.obs import prometheus_text, write_chrome_trace, write_jsonl

    base = args.trace
    events = instruments.tracer.events
    write_jsonl(events, base + ".jsonl")
    write_chrome_trace(events, base + ".chrome.json")
    with open(base + ".prom", "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(instruments.metrics))
    print(
        f"trace: {len(events)} events -> {base}.jsonl, "
        f"{base}.chrome.json, {base}.prom",
        file=out,
    )


def _run_fleet(args, out) -> int:
    import json

    from repro.core.fleet import FleetInferenceEngine, build_fleet

    if args.fleet < 1:
        print(f"--fleet must be positive, got {args.fleet}", file=out)
        return 2
    if args.max_in_flight is not None and args.max_in_flight < 1:
        print(f"--max-in-flight must be positive, got {args.max_in_flight}", file=out)
        return 2
    if args.fleet_profiles:
        names = [name.strip() for name in args.fleet_profiles.split(",") if name.strip()]
    else:
        names = [args.profile]
    unknown = sorted(set(names) - set(VENDOR_PROFILES))
    if unknown:
        print(
            f"unknown fleet profile(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(VENDOR_PROFILES))})",
            file=out,
        )
        return 2
    members = build_fleet([VENDOR_PROFILES[name] for name in names], args.fleet)
    instruments = _make_instruments(args)
    fault_injector = None
    retry_policy = None
    if args.fault_scenario:
        from repro.faults import FaultInjector, RetryPolicy
        from repro.netem.scenarios import FAULT_SCENARIOS

        if args.fault_scenario not in FAULT_SCENARIOS:
            print(
                f"unknown fault scenario: {args.fault_scenario} "
                f"(choose from {', '.join(sorted(FAULT_SCENARIOS))})",
                file=out,
            )
            return 2
        plan = FAULT_SCENARIOS[args.fault_scenario].plan(args.seed)
        fault_injector = FaultInjector(plan)
        retry_policy = RetryPolicy()
    engine = FleetInferenceEngine(
        members,
        seed=args.seed,
        max_in_flight=args.max_in_flight,
        use_cache=not args.no_fleet_cache,
        fault_injector=fault_injector,
        retry_policy=retry_policy,
        size_probe_max_rules=args.max_rules,
        latency_batch_sizes=(100, 400, 900),
        instruments=instruments,
    )
    result = engine.infer_fleet(include_policy=args.policy)
    if args.json:
        print(json.dumps(result.summary(), indent=2), file=out)
        _write_trace_outputs(args, instruments, out)
        return 0
    in_flight = (
        "unbounded" if result.max_in_flight is None else str(result.max_in_flight)
    )
    plural = "s" if len(names) != 1 else ""
    print(
        f"fleet inference: {len(result.members)} switches "
        f"({len(names)} profile{plural}), max in flight {in_flight}",
        file=out,
    )
    print(f"  virtual makespan : {result.makespan_ms / 1000.0:9.2f} s", file=out)
    print(
        f"  sequential sum   : {result.sequential_sum_ms / 1000.0:9.2f} s "
        f"({result.speedup:.2f}x speedup)",
        file=out,
    )
    print(
        f"  full probe runs  : {result.full_probe_runs}  "
        f"(cache hits {result.cache_hits}, "
        f"coalesced {result.coalesced_joins})",
        file=out,
    )
    print(f"  probe operations : {result.probe_ops}", file=out)
    print("  per switch:", file=out)
    for member in result.members:
        if member.cache_hit:
            source = f"cache:{member.cache_origin}"
        elif member.coalesced:
            source = f"coalesced:{member.cache_origin}"
        else:
            source = "probe"
        print(
            f"    {member.name:<14s} {member.profile_name:<10s} "
            f"start {member.started_ms / 1000.0:8.2f} s  "
            f"finish {member.finished_ms / 1000.0:8.2f} s  {source}",
            file=out,
        )
    _write_trace_outputs(args, instruments, out)
    return 0


def _triangle_testbed(seed: int, flows: int):
    """The triangle testbed: Switch #1 with ``s3`` on Switch #3, and
    ``flows`` flows s1 -> s2 at seeded priorities, their rules installed."""
    from repro.netem.network import EmulatedNetwork
    from repro.netem.topology import triangle_topology
    from repro.sim.rng import SeededRng

    network = EmulatedNetwork(
        triangle_topology(),
        default_profile=VENDOR_PROFILES["switch1"],
        profiles={"s3": VENDOR_PROFILES["switch3"]},
        seed=seed,
    )
    rng = SeededRng(seed).child("cli-flows")
    for _ in range(flows):
        network.new_flow("s1", "s2", priority=rng.randint(1, 2000))
    network.preinstall_flow_rules()
    return network


def _run_schedule(args, out) -> int:
    from repro.baselines import DionysusScheduler
    from repro.core.patterns import make_type_only_pattern
    from repro.core.scheduler import BasicTangoScheduler
    from repro.netem.scenarios import LinkFailureScenario, TrafficEngineeringScenario

    for flag, value in (("--flows", args.flows), ("--requests", args.requests)):
        if value < 1:
            print(f"{flag} must be positive, got {value}", file=out)
            return 2

    def build_dag(network):
        if args.scenario == "lf":
            return LinkFailureScenario(network, ("s1", "s2")).build_dag()
        mix = (0.5, 0.25, 0.25) if args.scenario == "te1" else (1 / 3, 1 / 3, 1 / 3)
        scenario = TrafficEngineeringScenario(network, seed=args.seed + 1)
        result = scenario.random_mix(args.requests, mix=mix)
        result.apply_preinstall(network)
        return result

    instruments = _make_instruments(args)
    arms = {
        "dionysus": DionysusScheduler,
        "tango-type": lambda ex: BasicTangoScheduler(
            ex, patterns=[make_type_only_pattern()]
        ),
        "tango": BasicTangoScheduler,
    }
    print(
        f"scenario {args.scenario}: {args.flows} flows on the triangle testbed",
        file=out,
    )
    baseline = None
    checked = False
    for label, factory in arms.items():
        network = _triangle_testbed(args.seed, args.flows)
        result = build_dag(network)
        if args.strict and not checked:
            # Same seed => every arm schedules an identical DAG; verify once.
            checked = True
            from repro.analysis import analyze_dag

            resident = [
                (name, entry.match, entry.priority)
                for name, switch in sorted(network.switches.items())
                for entry in switch.tables.entries
            ]
            report = analyze_dag(result.dag, existing=resident)
            if len(report):
                print(report.format(), file=out)
            if report.has_errors:
                print(
                    f"static verification failed with "
                    f"{len(report.errors())} error(s); nothing scheduled",
                    file=out,
                )
                return 2
            print(
                f"static verification ok: {len(result.dag)} requests, "
                f"{len(report.warnings())} warning(s)",
                file=out,
            )
        instruments.event("schedule.arm", category="cli", arm=label)
        executor = network.executor(instruments=instruments)
        outcome = factory(executor).schedule(result.dag)
        seconds = outcome.makespan_ms / 1000.0
        if baseline is None:
            baseline = seconds
            note = "(baseline)"
        else:
            note = f"({(baseline - seconds) / baseline * 100:+.0f}% vs Dionysus)"
        print(f"  {label:12s}: {seconds:7.2f} s {note}", file=out)
    _write_trace_outputs(args, instruments, out)
    return 0


def _run_faults(args, out) -> int:
    from repro.core.scheduler import BasicTangoScheduler
    from repro.faults import FaultInjector, RetryPolicy
    from repro.obs import Instruments, default_collector
    from repro.perf.harness import verify_noop
    from repro.netem.scenarios import FAULT_SCENARIOS, LinkFailureScenario

    scenario = FAULT_SCENARIOS[args.scenario]
    plan = scenario.plan(args.seed)
    print(
        f"fault scenario '{scenario.name}' (seed {args.seed}): "
        f"{scenario.description}",
        file=out,
    )

    if args.verify_noop:
        verify_noop()
        print(
            "noop check ok: instruments and a zero-fault injector leave "
            "every run bit-identical",
            file=out,
        )

    instruments = _make_instruments(args)

    def run_once():
        # Faulted size inference (Algorithm 1 in degraded mode).
        probe_injector = FaultInjector(plan)
        engine = SwitchInferenceEngine(
            VENDOR_PROFILES[args.profile],
            seed=args.seed,
            fault_injector=probe_injector,
            retry_policy=RetryPolicy(),
            instruments=instruments,
        )
        size = engine.infer_sizes()

        # Faulted link-failure schedule on the triangle testbed.
        network = _triangle_testbed(args.seed, args.flows)
        dag_result = LinkFailureScenario(network, ("s1", "s2")).build_dag()
        sched_injector = FaultInjector(plan)
        collector = default_collector() if args.telemetry else None
        executor = network.executor(
            fault_injector=sched_injector,
            instruments=Instruments(
                instruments.tracer, instruments.metrics, telemetry=collector
            ),
        )
        outcome = BasicTangoScheduler(executor).schedule(dag_result.dag)
        executor.instruments.finish(executor.now_ms())
        timeline = tuple(
            (r.request.request_id, r.started_ms, r.finished_ms)
            for r in outcome.records
        )
        signature = (
            tuple(layer.estimated_size for layer in size.layers),
            outcome.makespan_ms,
            outcome.rounds,
            timeline,
        )
        return size, outcome, probe_injector, sched_injector, signature, collector

    size, outcome, probe_injector, sched_injector, signature, collector = run_once()

    sizes = ", ".join(
        "unbounded" if layer.estimated_size is None else str(layer.estimated_size)
        for layer in size.layers
    )
    print(f"size probe [{args.profile}]:", file=out)
    print(f"  layer sizes      : {sizes}", file=out)
    print(f"  install giveups  : {size.install_giveups}", file=out)
    print(f"  confidence       : {size.confidence:.4f}", file=out)
    probe_counts = probe_injector.injection_counts()
    print(
        "  injected         : "
        + ", ".join(f"{k}={v}" for k, v in sorted(probe_counts.items())),
        file=out,
    )
    print(f"schedule lf ({args.flows} flows):", file=out)
    print(f"  makespan         : {outcome.makespan_ms:.2f} ms", file=out)
    print(f"  rounds           : {outcome.rounds}", file=out)
    print(
        f"  fault retries    : {outcome.fault_retries} "
        f"({len(outcome.faulted_request_ids)} requests deferred)",
        file=out,
    )
    print(
        f"  deadline misses  : {outcome.deadline_misses} "
        f"(fault={outcome.deadline_misses_fault}, "
        f"schedule={outcome.deadline_misses_schedule})",
        file=out,
    )
    sched_counts = sched_injector.injection_counts()
    print(
        "  injected         : "
        + ", ".join(f"{k}={v}" for k, v in sorted(sched_counts.items())),
        file=out,
    )

    if collector is not None:
        stats = collector.stats()
        print("telemetry:", file=out)
        print(f"  samples          : {stats['samples']}", file=out)
        print(f"  ticks            : {stats['ticks']}", file=out)
        print(f"  series           : {len(collector.series_names())}", file=out)
        print(f"  alerts           : {len(collector.alerts)}", file=out)
        for alert in collector.alerts:
            source = f"[{alert.source}]" if alert.source else ""
            print(
                f"    {alert.name} ({alert.kind}, {alert.severity}) "
                f"at t={alert.t_ms:.2f} ms on {alert.series}{source}",
                file=out,
            )

    if args.verify_determinism:
        _, _, _, _, second, recollector = run_once()
        if second != signature:
            print(
                "determinism FAILED: two same-seed runs diverged", file=out
            )
            return 2
        if collector is not None and recollector is not None:
            from repro.obs.export import jsonl_lines

            streams = [
                (jsonl_lines(c.samples), jsonl_lines(c.alerts))
                for c in (collector, recollector)
            ]
            if streams[0] != streams[1]:
                print(
                    "determinism FAILED: two same-seed runs produced "
                    "different telemetry streams",
                    file=out,
                )
                return 2
        print(
            "determinism ok: two same-seed runs produced identical "
            "size estimates and schedules"
            + (" and telemetry streams" if collector is not None else ""),
            file=out,
        )

    if collector is not None:
        from repro.obs.slo import write_streams

        telemetry_path, alerts_path = write_streams(collector, args.telemetry)
        print(f"telemetry samples written to {telemetry_path}", file=out)
        print(f"telemetry alerts written to {alerts_path}", file=out)

    _write_trace_outputs(args, instruments, out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.command == "schedule":
        return _run_schedule(args, out)

    if args.command == "faults":
        return _run_faults(args, out)

    if args.command == "profiles":
        for name, profile in sorted(VENDOR_PROFILES.items()):
            sizes = [
                "unbounded" if s is None else str(s) for s in profile.true_layer_sizes
            ]
            print(f"{name:10s} layers: {', '.join(sizes)}", file=out)
        return 0

    if args.fleet is not None:
        return _run_fleet(args, out)

    if args.fault_scenario:
        print("--fault-scenario needs a fleet: add --fleet N", file=out)
        return 2

    profile = VENDOR_PROFILES[args.profile]
    instruments = _make_instruments(args)
    engine = SwitchInferenceEngine(
        profile,
        seed=args.seed,
        size_probe_max_rules=args.max_rules,
        latency_batch_sizes=(100, 400, 900),
        instruments=instruments,
    )
    model = engine.infer(include_policy=args.policy)
    if args.json:
        import json

        payload = model.to_dict()
        payload["probe_ledger"] = [cost.to_dict() for cost in engine.ledger]
        print(json.dumps(payload, indent=2), file=out)
    else:
        _print_report(model, out)
    _write_trace_outputs(args, instruments, out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
