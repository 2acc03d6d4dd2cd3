"""Hot-path micro-benchmarks with exact, deterministic op counts.

Each bench case runs the shipping implementation on a deterministic
workload and counts its operations.  ``benchmarks/perf_baseline.json``
lists every gated ``case:n`` key with its expected count, and
``tests/test_perf_harness.py`` asserts each one exactly: any change in
a count is an algorithmic change and comes with a hand-edited baseline
entry.  Op counts are exact functions of the workload, the same under
every ``PYTHONHASHSEED``: DAG edge visits + ready yields for the
schedulers (:class:`repro.core.requests.DagOpCounters`), list element
moves for the shift model, probe operations for the fleets, and the
serve loop's lookup + DAG + issue-record total.  Nothing here reads the
host clock, so the counts cannot flake with machine load; wall-clock
measurement lives in ``tangobench/``.

Cases (``n`` is the size knob):

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
  plan (5% control loss + one early disconnect window).  Counts the
  cost of fault-deferral bookkeeping: re-enqueued requests revisit DAG
  edges, so a fault-handling change that loops instead of deferring
  shows up as an op-count blowup.
* ``fleet_infer``        -- concurrent fleet inference over 3 tiny
  distinct profiles, n members.
* ``serve_churn``        -- n churning flow arrivals served by
  :class:`repro.serve.ServeLoop` against a 96-rule budget (FDRC
  admission, policy-ranked eviction, wildcard aggregation).

The optimized implementations' identity with the retired ones they
replaced is pinned by the tier-1 differential tests, not here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.scheduler import BasicTangoScheduler, PrefixTangoScheduler
from repro.faults import DisconnectWindow, FaultInjector, FaultPlan
from repro.obs import NULL_INSTRUMENTS, Instruments, MetricsRegistry
from repro.core.fleet import FleetInferenceEngine, FleetResult, build_fleet
from repro.core.scores import TangoScoreDatabase
from repro.perf.workloads import (
    FLEET_BENCH_KNOBS,
    UNLOCK_ESTIMATES,
    chain_dag,
    descending_priorities,
    fast_executor,
    fleet_bench_profiles,
    layered_dag,
    serve_bench_profile,
    serve_churn_config,
    unlock_groups_dag,
)
from repro.tables.tcam import PriorityShiftModel

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


def _bench_schedule(case: str, build_dag, n: int) -> BenchRecord:
    dag = build_dag(n)
    dag.ops.clear()
    # The case runs with a live metrics registry attached so the record
    # carries the op attribution.  The registry adds no ops:
    # verify_noop checks that attached instruments leave a Basic
    # schedule's op count unchanged.
    registry = MetricsRegistry()
    scheduler = BasicTangoScheduler(
        fast_executor(), instruments=Instruments(metrics=registry)
    )
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
        instruments=Instruments(metrics=registry),
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
#: every baseline size, few enough faults that rounds stay bounded.
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
        fast_executor(fault_injector=injector),
        instruments=Instruments(metrics=registry),
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
    runs and blows the op count up ~4x; the virtual
    makespan/sequential-sum ratio lands in the detail.
    """
    registry = MetricsRegistry()
    engine = FleetInferenceEngine(
        build_fleet(fleet_bench_profiles(), n),
        seed=3,
        instruments=Instruments(metrics=registry),
        **FLEET_BENCH_KNOBS,
    )
    result = engine.infer_fleet(include_policy=False)
    return BenchRecord(
        case="fleet_infer",
        n=n,
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
    shows up as an op-count blowup.  The ``detail`` carries the full
    serving summary (requests/sec, p50/p99 install latency,
    hit/evict/aggregate counters, final occupancy).
    """
    from repro.serve import ServeLoop

    registry = MetricsRegistry()
    loop = ServeLoop(
        serve_churn_config(n),
        serve_bench_profile(),
        instruments=Instruments(metrics=registry),
    )
    result = loop.run()
    return BenchRecord(
        case="serve_churn",
        n=n,
        ops=result.op_count,
        detail={"serve": result.to_dict(), "attribution": registry.snapshot()},
    )


#: Case-name -> bench function; the case half of every
#: ``benchmarks/perf_baseline.json`` key.
CASE_NAMES: Dict[str, Callable[[int], BenchRecord]] = {
    "chain_schedule": bench_chain_schedule,
    "layered_schedule": bench_layered_schedule,
    "descending_shifts": bench_descending_shifts,
    "prefix_lookahead": bench_prefix_lookahead,
    "faulted_schedule": bench_faulted_schedule,
    "fleet_infer": bench_fleet_infer,
    "serve_churn": bench_serve_churn,
}


# -- the no-op check -------------------------------------------------------------
def _signature(result, ops: int, scores: Optional[TangoScoreDatabase] = None) -> Tuple:
    """Byte-comparable digest of one run: op count, outcome, TangoDB.

    The outcome of a schedule is its makespan, rounds, pattern choices,
    fault retries and every issue record; of a fleet run, every
    member's model, timeline, source and probe ops plus the summary.
    """
    if isinstance(result, FleetResult):
        outcome: Tuple = tuple(
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
        ) + (json.dumps(result.summary(), sort_keys=True),)
    else:
        outcome = (
            result.makespan_ms,
            result.rounds,
            tuple(result.pattern_choices),
            result.fault_retries,
            tuple(
                (record.request.request_id, record.started_ms, record.finished_ms)
                for record in result.records
            ),
        )
    records = () if scores is None else tuple(
        (record.key, repr(record.value), record.recorded_at_ms, record.source)
        for record in scores.records()
    )
    return ops, outcome, records


def _noop_layered(n: int, instruments: Instruments, injector=None):
    dag = layered_dag(n)
    dag.ops.clear()
    executor = fast_executor(fault_injector=injector, instruments=instruments)
    result = BasicTangoScheduler(executor).schedule(dag)
    instruments.finish(executor.now_ms())
    return _signature(result, dag.ops.total())


def _noop_prefix(n: int, instruments: Instruments, injector=None):
    dag = unlock_groups_dag(min(n, 240))
    dag.ops.clear()
    executor = fast_executor(
        "a", "b", fault_injector=injector, instruments=instruments
    )
    result = PrefixTangoScheduler(
        executor, estimate=_unlock_estimate, lookahead_depth=2
    ).schedule(dag)
    instruments.finish(executor.now_ms())
    return _signature(result, dag.ops.total())


def _noop_fleet(n: int, instruments: Instruments, injector=None):
    scores = TangoScoreDatabase()
    engine = FleetInferenceEngine(
        build_fleet(fleet_bench_profiles()[:2], 3),
        scores=scores,
        seed=9,
        max_in_flight=2,
        fault_injector=injector,
        instruments=instruments,
        **FLEET_BENCH_KNOBS,
    )
    result = engine.infer_fleet(include_policy=False)
    return _signature(result, result.probe_ops, scores)


#: The no-op check's workloads: the layered schedule, the prefix
#: planner (its hot path) on the unlock workload, and a small concurrent
#: fleet inference.
NOOP_WORKLOADS: Dict[str, Callable[..., Tuple]] = {
    "layered": _noop_layered,
    "prefix": _noop_prefix,
    "fleet": _noop_fleet,
}


def _sink_combinations():
    """(label, handle) for every non-empty mix of the three sinks."""
    from repro.obs import Tracer, default_collector

    for mask in range(1, 8):
        instruments = Instruments(
            tracer=Tracer() if mask & 1 else None,
            metrics=MetricsRegistry() if mask & 2 else None,
            telemetry=default_collector() if mask & 4 else None,
        )
        sinks = ("tracer", "metrics", "telemetry")
        label = "+".join(sink for bit, sink in enumerate(sinks) if mask >> bit & 1)
        yield label, instruments


def verify_noop(n: int = 1000) -> Dict[str, object]:
    """Assert that nothing attached to a run changes what the run does.

    Every workload in :data:`NOOP_WORKLOADS` runs bare, then once per
    attachment, and each attached run must reproduce the bare run's
    :func:`_signature` -- op count, every issue record (or member
    model and timeline), and the TangoDB records.  The attachments:

    * instruments, in every combination of tracer, metrics registry and
      telemetry collector; one workload's collectors must also stream
      byte-identical telemetry JSONL;
    * a zero-fault :class:`~repro.faults.FaultInjector`, which must
      inject nothing (so no request is retried).

    Raises :class:`AssertionError` on any divergence; returns per
    workload the bare op count and what the attachments recorded.
    """
    from repro.obs.export import jsonl_lines

    payload: Dict[str, object] = {}
    for name, run in NOOP_WORKLOADS.items():
        bare = run(n, NULL_INSTRUMENTS)
        arms = list(_sink_combinations())
        streams: Set[str] = set()
        for label, instruments in arms:
            if run(n, instruments) != bare:
                raise AssertionError(f"{label} changed the {name} run")
            if instruments.telemetry is not None:
                streams.add("\n".join(jsonl_lines(instruments.telemetry.samples)))
        if len(streams) != 1:
            raise AssertionError(f"{name}: same-seed collectors streamed differently")
        injector = FaultInjector(FaultPlan())
        if run(n, NULL_INSTRUMENTS, injector=injector) != bare:
            raise AssertionError(f"a zero-fault injector changed the {name} run")
        injected = injector.injection_counts()
        if any(injected.values()):
            raise AssertionError(f"a zero-fault plan injected faults: {injected}")
        full = arms[-1][1]  # every sink attached
        tracer, metrics, collector = full.tracer, full.metrics, full.telemetry
        assert tracer is not None and metrics is not None and collector is not None
        payload[name] = {
            "ops": bare[0],
            "trace_events": len(tracer),
            "metrics": len(metrics),
            "telemetry_samples": len(collector.samples),
        }
    return payload
