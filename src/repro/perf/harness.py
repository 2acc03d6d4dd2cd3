"""Hot-path micro-benchmarks with a deterministic regression gate.

Each bench case runs the shipping implementation on a deterministic
workload and counts its operations.  A case regresses when its op count
exceeds the checked-in baseline (``benchmarks/perf_baseline.json``) by
more than :data:`REGRESSION_THRESHOLD`.  Op counts are exact functions
of the workload: DAG edge visits + ready yields for the schedulers
(:class:`repro.core.requests.DagOpCounters`), list element moves for
the shift model, probe operations for the fleets, and the serve loop's
lookup + DAG + issue-record total.  Nothing here reads the host clock,
so the gate cannot flake with machine load; wall-clock measurement
lives in ``tangobench/``.

Cases (``n`` is the suite size knob):

* ``chain_schedule``     -- n-request dependency chain, Basic scheduler.
* ``layered_schedule``   -- n requests in width-50 layers, Basic scheduler.
* ``descending_shifts``  -- n rule installs at descending priority
  through the shift model (every add shifts all residents).  Its ops
  are the sorted list's element moves, n(n+1)/2.
* ``prefix_lookahead``   -- Prefix scheduler (depth 2) on the two-switch
  unlock workload, planned by the incremental
  :class:`repro.core.planner.TailCostPlanner`; the planner's stats land
  in the detail.
* ``faulted_schedule``   -- the layered workload under a seeded fault
  plan (5% control loss + one early disconnect window).  Gates the cost
  of fault-deferral bookkeeping: re-enqueued requests revisit DAG
  edges, so a fault-handling change that loops instead of deferring
  shows up as an op-count blowup.
* ``fleet_infer``        -- concurrent fleet inference over 3 tiny
  distinct profiles, at most :data:`FLEET_MEMBER_CAP` members.
* ``sharded_fleet``      -- fleet inference through
  :class:`repro.core.shard.ShardedFleetEngine` (4 shards, tier
  partition, inline backend) over at most :data:`SHARDED_MEMBER_CAP`
  distinct-fingerprint tier-named profiles.
* ``serve_churn``        -- n churning flow arrivals served by
  :class:`repro.serve.ServeLoop` against a 96-rule budget (FDRC
  admission, policy-ranked eviction, wildcard aggregation).

The optimized implementations' identity with the retired ones they
replaced is pinned by the tier-1 differential tests, not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.scheduler import BasicTangoScheduler, PrefixTangoScheduler
from repro.faults import (
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    verify_noop_injection,
)
from repro.obs.metrics import MetricsRegistry
from repro.core.fleet import FleetInferenceEngine, build_fleet
from repro.core.scores import TangoScoreDatabase
from repro.core.shard import ShardedFleetEngine
from repro.perf.workloads import (
    FLEET_BENCH_KNOBS,
    SHARDED_BENCH_KNOBS,
    UNLOCK_ESTIMATES,
    chain_dag,
    descending_priorities,
    fast_executor,
    fleet_bench_profiles,
    layered_dag,
    serve_bench_profile,
    serve_churn_config,
    sharded_fleet_profiles,
    unlock_groups_dag,
)
from repro.tables.tcam import PriorityShiftModel

#: Optimized op count may grow this much over the baseline before the
#: gate fails (1.5x; headroom for intentional small changes).
REGRESSION_THRESHOLD = 1.5

#: Suite sizes: full run and the CI ``--quick`` run.
FULL_SIZES: Tuple[int, ...] = (1000, 5000, 20000)
QUICK_SIZES: Tuple[int, ...] = (1000,)

#: Member cap of the single-queue ``fleet_infer`` case (its gate was
#: calibrated at 12 members; see ``fleet_infer:12``).
FLEET_MEMBER_CAP = 12

#: Member cap of the ``sharded_fleet`` case: enough members for every
#: one of its 4 shards to do real work, cross-shard coalescing included.
SHARDED_MEMBER_CAP = 64


@dataclass
class BenchRecord:
    """One (case, n) op count."""

    case: str
    n: int
    ops: int
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.case}:{self.n}"


def _schedule_signature(result) -> Tuple[float, int, Tuple[str, ...], int]:
    return (
        result.makespan_ms,
        result.rounds,
        tuple(result.pattern_choices),
        result.total_requests,
    )


def _bench_schedule(case: str, build_dag, n: int) -> BenchRecord:
    dag = build_dag(n)
    dag.ops.clear()
    # The case runs with a live metrics registry attached: the op
    # attribution lands in the report, and -- because the op-count gate
    # compares against the uninstrumented baseline -- any instrumentation
    # cost that leaked into the hot path would trip the 1.5x threshold.
    registry = MetricsRegistry()
    scheduler = BasicTangoScheduler(fast_executor(), metrics=registry)
    result = scheduler.schedule(dag)
    return BenchRecord(
        case=case,
        n=n,
        ops=dag.ops.total(),
        detail={
            "makespan_ms": result.makespan_ms,
            "rounds": result.rounds,
            "attribution": registry.snapshot(),
        },
    )


def bench_chain_schedule(n: int) -> BenchRecord:
    return _bench_schedule("chain_schedule", chain_dag, n)


def bench_layered_schedule(n: int) -> BenchRecord:
    return _bench_schedule("layered_schedule", layered_dag, n)


def bench_descending_shifts(n: int) -> BenchRecord:
    priorities = descending_priorities(n)
    model = PriorityShiftModel()
    shifts = 0
    for priority in priorities:
        shifts += model.record_add(priority)
    record = BenchRecord(case="descending_shifts", n=n, ops=model.accounting_ops)
    registry = MetricsRegistry()
    registry.counter("tcam.shift_model_queries").inc(len(priorities))
    registry.counter("tcam.shift_accounting_ops").inc(model.accounting_ops)
    record.detail = {"total_shifts": shifts, "attribution": registry.snapshot()}
    return record


def _record_signature(result) -> Tuple:
    """Byte-comparable digest of every issue record in a schedule."""
    return tuple(
        (record.request.request_id, record.started_ms, record.finished_ms)
        for record in result.records
    )


def _unlock_estimate(request) -> float:
    return UNLOCK_ESTIMATES[request.location]


def bench_prefix_lookahead(n: int) -> BenchRecord:
    dag = unlock_groups_dag(n)
    dag.ops.clear()
    registry = MetricsRegistry()
    scheduler = PrefixTangoScheduler(
        fast_executor("a", "b"),
        estimate=_unlock_estimate,
        lookahead_depth=2,
        metrics=registry,
    )
    result = scheduler.schedule(dag)
    planner = scheduler.last_planner
    return BenchRecord(
        case="prefix_lookahead",
        n=n,
        ops=dag.ops.total(),
        detail={
            "makespan_ms": result.makespan_ms,
            "rounds": result.rounds,
            "planner": planner.stats() if planner is not None else {},
            "attribution": registry.snapshot(),
        },
    )


#: The faulted case's plan: enough churn to exercise deferral paths at
#: every suite size, few enough faults that rounds stay bounded.
FAULTED_PLAN = FaultPlan(
    seed=97,
    loss_probability=0.05,
    disconnects=(DisconnectWindow(start_ms=5.0, reconnect_at_ms=25.0),),
)


def bench_faulted_schedule(n: int) -> BenchRecord:
    dag = layered_dag(n)
    dag.ops.clear()
    registry = MetricsRegistry()
    injector = FaultInjector(FAULTED_PLAN)
    scheduler = BasicTangoScheduler(
        fast_executor(fault_injector=injector), metrics=registry
    )
    result = scheduler.schedule(dag)
    return BenchRecord(
        case="faulted_schedule",
        n=n,
        ops=dag.ops.total(),
        detail={
            "makespan_ms": result.makespan_ms,
            "rounds": result.rounds,
            "fault_retries": result.fault_retries,
            "faulted_requests": len(result.faulted_request_ids),
            "injected": injector.injection_counts(),
            "attribution": registry.snapshot(),
        },
    )


def _fleet_detail(result) -> Dict[str, object]:
    return {
        "makespan_ms": result.makespan_ms,
        "sequential_sum_ms": result.sequential_sum_ms,
        "speedup_virtual": round(result.speedup, 3),
        "full_probe_runs": result.full_probe_runs,
        "cache_hits": result.cache_hits,
        "coalesced_joins": result.coalesced_joins,
    }


def bench_fleet_infer(n: int) -> BenchRecord:
    """Concurrent fleet inference over 3 distinct tiny profiles.

    Ops are the fleet's deterministic probe-operation total (flow
    installs + RTT measurements across every full probe run) -- a pure
    function of (profiles, seed, knobs).  A change that defeats the
    model cache or the single-flight coalescing multiplies full probe
    runs and blows the op count up ~4x, which the gate catches; the
    virtual makespan/sequential-sum ratio lands in the detail for the
    BENCH trajectory.
    """
    size = min(n, FLEET_MEMBER_CAP)
    registry = MetricsRegistry()
    engine = FleetInferenceEngine(
        build_fleet(fleet_bench_profiles(), size),
        seed=3,
        metrics=registry,
        **FLEET_BENCH_KNOBS,
    )
    result = engine.infer_fleet(include_policy=False)
    return BenchRecord(
        case="fleet_infer",
        n=size,
        ops=result.probe_ops,
        detail={**_fleet_detail(result), "attribution": registry.snapshot()},
    )


def bench_serve_churn(n: int) -> BenchRecord:
    """Sustained serving under flow churn against a 96-rule budget.

    Runs :class:`repro.serve.ServeLoop` over ``n`` Zipf/churn arrivals
    (see :func:`repro.perf.workloads.serve_churn_config`).  Ops are the
    loop's deterministic operation total — one per table lookup plus
    every DAG edge visit, ready yield, and issued request across all
    install batches — a pure function of ``n``, so a caching change
    that defeats admission coalescing or plans redundant evictions
    shows up as an op-count blowup the gate catches.  The ``detail``
    carries the full serving summary (requests/sec, p50/p99 install
    latency, hit/evict/aggregate counters, final occupancy) — the
    ``serve_churn`` BENCH block EXPERIMENTS.md interprets.
    """
    from repro.serve import ServeLoop

    registry = MetricsRegistry()
    loop = ServeLoop(serve_churn_config(n), serve_bench_profile(), metrics=registry)
    result = loop.run()
    return BenchRecord(
        case="serve_churn",
        n=n,
        ops=result.op_count,
        detail={"serve": result.to_dict(), "attribution": registry.snapshot()},
    )


def bench_sharded_fleet(n: int) -> BenchRecord:
    """Sharded fleet inference over tier-named, distinct-fingerprint
    profiles, merged back into the global record order.

    Ops are the merged fleet's deterministic probe-operation total, a
    pure function of (profiles, seed, knobs, shard count), so the gate
    catches both classic op blowups (defeated cache/coalescing) and
    merge bugs that drop or duplicate shard journals.  The merge's
    byte-identity with the single-queue engine at this exact geometry
    is pinned by ``tests/test_core_shard.py``.  Runs the ``inline``
    backend so gated numbers carry no process-pool noise.
    """
    size = min(n, SHARDED_MEMBER_CAP)
    engine = ShardedFleetEngine(
        build_fleet(sharded_fleet_profiles(size), size),
        seed=3,
        shards=4,
        partition="tier",
        backend="inline",
        **SHARDED_BENCH_KNOBS,
    )
    result = engine.infer_fleet(include_policy=False)
    return BenchRecord(
        case="sharded_fleet",
        n=size,
        ops=result.probe_ops,
        detail={**_fleet_detail(result), "shards": engine.shard_stats},
    )


#: Case-name -> bench function, in suite order, for
#: ``run_suite(cases=...)`` / ``--cases``.
CASE_NAMES: Dict[str, Callable[[int], BenchRecord]] = {
    "chain_schedule": bench_chain_schedule,
    "layered_schedule": bench_layered_schedule,
    "descending_shifts": bench_descending_shifts,
    "prefix_lookahead": bench_prefix_lookahead,
    "faulted_schedule": bench_faulted_schedule,
    "fleet_infer": bench_fleet_infer,
    "sharded_fleet": bench_sharded_fleet,
    "serve_churn": bench_serve_churn,
}


def _fleet_signature(result) -> Tuple:
    """Byte-comparable digest of a fleet run (models, timing, ops)."""
    return tuple(
        (
            member.name,
            json.dumps(member.model.to_dict(), sort_keys=True),
            member.started_ms,
            member.finished_ms,
            member.cache_hit,
            member.coalesced,
            member.probe_ops,
        )
        for member in result.members
    ) + (result.makespan_ms,)


def _noop_fleet_run(tracer, metrics, telemetry=None, scores=None):
    engine = FleetInferenceEngine(
        build_fleet(fleet_bench_profiles()[:2], 3),
        scores=scores,
        seed=9,
        max_in_flight=2,
        tracer=tracer,
        metrics=metrics,
        telemetry=telemetry,
        **FLEET_BENCH_KNOBS,
    )
    return engine.infer_fleet(include_policy=False)


def _db_signature(db) -> Tuple:
    """Byte-comparable digest of TangoDB contents, in insertion order."""
    return tuple(
        (record.key, repr(record.value), record.recorded_at_ms, record.source)
        for record in db.records()
    )


def _bench_collector():
    """A collector configured the way the no-op check attaches it."""
    from repro.obs.slo import SloPolicy, default_slo_targets
    from repro.obs.telemetry import TelemetryCollector

    collector = TelemetryCollector(interval_ms=5.0, window_ms=50.0)
    collector.add_policy(SloPolicy(default_slo_targets()))
    return collector


def verify_noop_instrumentation(n: int = 1000) -> Dict[str, object]:
    """Assert that attached telemetry never changes scheduling work.

    Runs the layered case twice -- bare, then with a live tracer and
    metrics registry -- and requires identical schedule signatures and
    DAG op counts; does the same for the prefix scheduler's incremental
    planner on the unlock workload (full per-record identity, since the
    planner is the hot path this suite guards); then the same with a
    small concurrent fleet inference run (identical models, member
    timelines, and probe op counts).

    A continuous :class:`~repro.obs.telemetry.TelemetryCollector` is
    held to the same bar: attached to the layered schedule and the fleet
    run it may not change schedule signatures, op counts, or TangoDB
    contents, and two same-seed collector runs must serialize to
    byte-identical telemetry JSONL.  Raises :class:`AssertionError` on
    any divergence; returns the comparison payload for reporting.
    """
    from repro.obs.telemetry import telemetry_jsonl_lines
    from repro.obs.trace import Tracer

    bare_dag = layered_dag(n)
    bare_dag.ops.clear()
    bare = BasicTangoScheduler(fast_executor()).schedule(bare_dag)

    traced_dag = layered_dag(n)
    traced_dag.ops.clear()
    tracer = Tracer()
    scheduler = BasicTangoScheduler(
        fast_executor(), tracer=tracer, metrics=MetricsRegistry()
    )
    traced = scheduler.schedule(traced_dag)

    prefix_n = min(n, 240)
    prefix_bare_dag = unlock_groups_dag(prefix_n)
    prefix_bare_dag.ops.clear()
    prefix_bare = PrefixTangoScheduler(
        fast_executor("a", "b"), estimate=_unlock_estimate, lookahead_depth=2
    ).schedule(prefix_bare_dag)

    prefix_traced_dag = unlock_groups_dag(prefix_n)
    prefix_traced_dag.ops.clear()
    prefix_tracer = Tracer()
    prefix_traced = PrefixTangoScheduler(
        fast_executor("a", "b"),
        estimate=_unlock_estimate,
        lookahead_depth=2,
        tracer=prefix_tracer,
        metrics=MetricsRegistry(),
    ).schedule(prefix_traced_dag)

    bare_fleet_db = TangoScoreDatabase()
    bare_fleet = _noop_fleet_run(tracer=None, metrics=None, scores=bare_fleet_db)
    fleet_tracer = Tracer()
    traced_fleet = _noop_fleet_run(tracer=fleet_tracer, metrics=MetricsRegistry())

    # Continuous flow telemetry: same run, collector attached.
    tele_dag = layered_dag(n)
    tele_dag.ops.clear()
    tele_collector = _bench_collector()
    tele_executor = fast_executor(telemetry=tele_collector)
    tele = BasicTangoScheduler(tele_executor).schedule(tele_dag)
    tele_collector.finish(tele_executor.now_ms())

    # ... and again: same seed, same workload, byte-identical stream.
    retele_dag = layered_dag(n)
    retele_dag.ops.clear()
    re_collector = _bench_collector()
    re_executor = fast_executor(telemetry=re_collector)
    BasicTangoScheduler(re_executor).schedule(retele_dag)
    re_collector.finish(re_executor.now_ms())

    fleet_collector = _bench_collector()
    tele_fleet_db = TangoScoreDatabase()
    tele_fleet = _noop_fleet_run(
        tracer=None, metrics=None, telemetry=fleet_collector, scores=tele_fleet_db
    )

    payload: Dict[str, object] = {
        "bare_ops": bare_dag.ops.total(),
        "traced_ops": traced_dag.ops.total(),
        "signatures_equal": _schedule_signature(bare) == _schedule_signature(traced),
        "trace_events": len(tracer),
        "prefix_bare_ops": prefix_bare_dag.ops.total(),
        "prefix_traced_ops": prefix_traced_dag.ops.total(),
        "prefix_signatures_equal": (
            _schedule_signature(prefix_bare) == _schedule_signature(prefix_traced)
            and _record_signature(prefix_bare) == _record_signature(prefix_traced)
        ),
        "prefix_trace_events": len(prefix_tracer),
        "fleet_bare_ops": bare_fleet.probe_ops,
        "fleet_traced_ops": traced_fleet.probe_ops,
        "fleet_signatures_equal": (
            _fleet_signature(bare_fleet) == _fleet_signature(traced_fleet)
        ),
        "fleet_trace_events": len(fleet_tracer),
        "collector_ops": tele_dag.ops.total(),
        "collector_signatures_equal": (
            _schedule_signature(bare) == _schedule_signature(tele)
        ),
        "collector_samples": len(tele_collector.samples),
        "collector_stream_identical": (
            telemetry_jsonl_lines(tele_collector.samples)
            == telemetry_jsonl_lines(re_collector.samples)
        ),
        "fleet_collector_samples": len(fleet_collector.samples),
        "fleet_collector_signatures_equal": (
            _fleet_signature(bare_fleet) == _fleet_signature(tele_fleet)
        ),
        "fleet_db_identical": (
            _db_signature(bare_fleet_db) == _db_signature(tele_fleet_db)
        ),
    }
    if payload["bare_ops"] != payload["traced_ops"] or not payload["signatures_equal"]:
        raise AssertionError(f"telemetry changed scheduler work: {payload}")
    if (
        payload["prefix_bare_ops"] != payload["prefix_traced_ops"]
        or not payload["prefix_signatures_equal"]
    ):
        raise AssertionError(f"telemetry changed prefix planner work: {payload}")
    if (
        payload["fleet_bare_ops"] != payload["fleet_traced_ops"]
        or not payload["fleet_signatures_equal"]
    ):
        raise AssertionError(f"telemetry changed fleet inference work: {payload}")
    if (
        payload["bare_ops"] != payload["collector_ops"]
        or not payload["collector_signatures_equal"]
    ):
        raise AssertionError(f"flow collector changed scheduler work: {payload}")
    if not payload["collector_stream_identical"]:
        raise AssertionError(
            f"same-seed collector runs produced different streams: {payload}"
        )
    if not payload["fleet_collector_signatures_equal"]:
        raise AssertionError(f"flow collector changed fleet inference: {payload}")
    if not payload["fleet_db_identical"]:
        raise AssertionError(f"flow collector changed TangoDB contents: {payload}")
    return payload


def run_suite(
    sizes: Optional[Sequence[int]] = None,
    quick: bool = False,
    cases: Optional[Sequence[str]] = None,
) -> List[BenchRecord]:
    """Run the selected cases at every size; dedupe (case, n) collisions.

    ``cases`` filters by name (see :data:`CASE_NAMES`); ``None`` runs
    them all.  Unknown names raise :class:`ValueError`.
    """
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    if cases is None:
        selected = list(CASE_NAMES.values())
    else:
        unknown = [name for name in cases if name not in CASE_NAMES]
        if unknown:
            raise ValueError(
                f"unknown bench cases {unknown}; known: {sorted(CASE_NAMES)}"
            )
        selected = [CASE_NAMES[name] for name in cases]
    # Telemetry must be free: a tracer/metrics attach that altered the
    # deterministic op counts would also poison the regression gate below.
    verify_noop_instrumentation()
    # So must a zero-fault injector: wrapping channels with an empty
    # FaultPlan may not change a single schedule bit.
    verify_noop_injection()
    records: List[BenchRecord] = []
    seen = set()
    for n in sizes:
        for case in selected:
            record = case(n)
            if record.key in seen:
                continue  # e.g. fleet_infer capped to the same size
            seen.add(record.key)
            records.append(record)
    return records


def compare_to_baseline(
    records: Sequence[BenchRecord], baseline: Dict[str, int]
) -> List[Dict[str, object]]:
    """Op-count regressions vs the checked-in baseline.

    Only keys present in both are compared, so a quick run gates against
    the quick-size subset of the full baseline.
    """
    regressions: List[Dict[str, object]] = []
    for record in records:
        expected = baseline.get(record.key)
        if expected is None:
            continue
        if expected == 0:
            # A zero baseline still gates: any ops at all is a regression
            # (ratio is undefined, reported as null).
            if record.ops > 0:
                regressions.append(
                    {
                        "key": record.key,
                        "baseline_ops": expected,
                        "ops": record.ops,
                        "ratio": None,
                    }
                )
            continue
        ratio = record.ops / expected
        if ratio > REGRESSION_THRESHOLD:
            regressions.append(
                {
                    "key": record.key,
                    "baseline_ops": expected,
                    "ops": record.ops,
                    "ratio": round(ratio, 3),
                }
            )
    return regressions


def baseline_from_records(records: Sequence[BenchRecord]) -> Dict[str, int]:
    return {record.key: record.ops for record in records}


def records_to_report(
    records: Sequence[BenchRecord],
    regressions: Sequence[Dict[str, object]],
    quick: bool,
    baseline_path: Optional[str],
) -> Dict[str, object]:
    """The ``BENCH_scheduler.json`` document."""
    return {
        "suite": "scheduler-hot-paths",
        "quick": quick,
        "threshold": REGRESSION_THRESHOLD,
        "baseline_path": baseline_path,
        "results": [asdict(record) for record in records],
        "regressions": list(regressions),
        "ok": not regressions,
    }
