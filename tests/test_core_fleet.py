"""Tests for fleet-scale concurrent inference (repro.core.fleet)."""

import pytest

from repro.core.fleet import (
    FLEET_DB_SWITCH,
    MODEL_CACHE_METRIC,
    FleetInferenceEngine,
    FleetMember,
    ModelCache,
    build_fleet,
    profile_fingerprint,
)
from repro.core.inference import SwitchInferenceEngine
from repro.core.scores import TangoScoreDatabase
from repro.faults import FaultInjector, RetryPolicy
from repro.faults.plan import FaultPlan
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO, LIFO, LRU, PRIORITY_CACHE

#: Small knobs so a full probe run stays fast while hitting every stage.
FAST = {"size_probe_max_rules": 192, "latency_batch_sizes": (20, 60)}


def _profiles(count=4):
    """``count`` behaviourally distinct tiny profiles."""
    specs = [
        (FIFO, (64, None), (0.5, 4.8)),
        (LRU, (48, None), (0.6, 5.0)),
        (LIFO, (96, None), (0.4, 4.2)),
        (PRIORITY_CACHE, (80, None), (0.7, 5.2)),
    ]
    return [
        make_cache_test_profile(
            policy, layer_sizes=sizes, layer_means_ms=means, name=f"prof-{i}"
        )
        for i, (policy, sizes, means) in enumerate(specs[:count])
    ]


# -- fingerprints and membership ------------------------------------------------
def test_fingerprint_ignores_name_but_not_behavior():
    import dataclasses

    base = _profiles(2)[0]
    renamed = dataclasses.replace(base, name="totally-different")
    other = _profiles(2)[1]
    assert profile_fingerprint(base) == profile_fingerprint(renamed)
    assert profile_fingerprint(base) != profile_fingerprint(other)
    # Inference config is part of the key: different knobs never share models.
    assert profile_fingerprint(base, max_rules=192) != profile_fingerprint(
        base, max_rules=8192
    )


def test_build_fleet_names_and_errors():
    profiles = _profiles(2)
    members = build_fleet(profiles, 5)
    assert [m.name for m in members] == [
        "prof-0", "prof-1", "prof-0#2", "prof-1#2", "prof-0#3",
    ]
    assert members[2].profile is profiles[0]
    assert members[2].named_profile().name == "prof-0#2"
    with pytest.raises(ValueError):
        build_fleet([], 3)
    with pytest.raises(ValueError):
        build_fleet(profiles, 0)


def test_fleet_engine_rejects_duplicates_and_bad_knobs():
    profile = _profiles(1)[0]
    members = [FleetMember("a", profile), FleetMember("a", profile)]
    with pytest.raises(ValueError):
        FleetInferenceEngine(members)
    with pytest.raises(ValueError):
        FleetInferenceEngine([FleetMember("a", profile)], max_in_flight=0)


# -- byte identity with the sequential engine ------------------------------------
def test_single_member_fleet_is_byte_identical_to_sequential_infer():
    profile = _profiles(1)[0]

    seq_scores = TangoScoreDatabase()
    sequential = SwitchInferenceEngine(
        profile, scores=seq_scores, seed=11, **FAST
    ).infer(include_policy=False)

    fleet_scores = TangoScoreDatabase()
    engine = FleetInferenceEngine(
        [profile], scores=fleet_scores, seed=11, **FAST
    )
    result = engine.infer_fleet(include_policy=False)

    assert len(result.members) == 1
    member = result.members[0]
    assert member.full_probe
    assert member.model.to_dict() == sequential.to_dict()
    # The member's per-switch TangoDB records match the sequential run's
    # exactly: same keys, timestamps, and provenance.
    seq_records = seq_scores.records_for_switch(profile.name)
    fleet_records = fleet_scores.records_for_switch(profile.name)
    assert [(r.key, r.recorded_at_ms, r.source) for r in seq_records] == [
        (r.key, r.recorded_at_ms, r.source) for r in fleet_records
    ]
    # Virtual makespan equals the member's own probe duration.
    assert result.makespan_ms == pytest.approx(member.duration_ms)


# -- concurrency, caching, coalescing --------------------------------------------
def test_sixteen_switch_fleet_pays_four_probe_runs_and_max_makespan():
    """The acceptance scenario: 16 switches over 4 distinct profiles."""
    members = build_fleet(_profiles(4), 16)
    engine = FleetInferenceEngine(members, seed=2, **FAST)
    result = engine.infer_fleet(include_policy=False)

    assert len(result.members) == 16
    assert result.full_probe_runs == 4  # one per distinct fingerprint
    assert result.cache_hits + result.coalesced_joins == 12
    full = [m for m in result.members if m.full_probe]
    slowest = max(m.duration_ms for m in full)
    # Unbounded admission: the fleet finishes with its slowest member,
    # comfortably under the 1.5x acceptance bound.
    assert result.makespan_ms == pytest.approx(slowest)
    assert result.makespan_ms <= 1.5 * slowest
    assert result.sequential_sum_ms > result.makespan_ms
    assert result.speedup > 1.0
    # Every member got a model named after itself.
    assert sorted(result.models) == sorted(m.name for m in members)
    for member in result.members:
        assert member.model.name == member.name


def test_max_in_flight_one_without_cache_serialises_the_fleet():
    members = build_fleet(_profiles(2), 3)
    engine = FleetInferenceEngine(
        members, seed=4, max_in_flight=1, use_cache=False, **FAST
    )
    result = engine.infer_fleet(include_policy=False)
    assert result.full_probe_runs == 3  # no cache, no coalescing
    assert result.makespan_ms == pytest.approx(result.sequential_sum_ms)
    # Deterministic admission order: members start back to back.
    finishes = [m.finished_ms for m in result.members]
    starts = [m.started_ms for m in result.members]
    assert starts[0] == 0.0
    assert starts[1] == pytest.approx(finishes[0])
    assert starts[2] == pytest.approx(finishes[1])


def test_warm_cache_run_probes_nothing():
    scores = TangoScoreDatabase()
    members = build_fleet(_profiles(2), 4)
    first = FleetInferenceEngine(members, scores=scores, seed=6, **FAST)
    cold = first.infer_fleet(include_policy=False)
    assert cold.full_probe_runs == 2

    second = FleetInferenceEngine(members, scores=scores, seed=6, **FAST)
    warm = second.infer_fleet(include_policy=False)
    assert warm.full_probe_runs == 0
    assert warm.cache_hits == 4
    assert warm.makespan_ms == 0.0  # cached models cost no virtual time
    assert second.cache.hits == 4
    # Cached models still land under each member's own name in TangoDB.
    for member in warm.members:
        record = scores.get_record(member.name, "switch_model")
        assert record is not None
        assert record.source.startswith("fleet_cache:")
    # Models transfer across runs byte for byte.
    assert {n: m.to_dict() for n, m in warm.models.items()} == {
        n: m.to_dict() for n, m in cold.models.items()
    }


def test_fleet_replay_is_deterministic():
    def run():
        members = build_fleet(_profiles(3), 6)
        engine = FleetInferenceEngine(members, seed=13, max_in_flight=2, **FAST)
        result = engine.infer_fleet(include_policy=False)
        return (
            result.makespan_ms,
            result.summary(),
            {n: m.to_dict() for n, m in result.models.items()},
        )

    assert run() == run()


# -- drift-driven invalidation ----------------------------------------------------
def test_drift_invalidation_reprobes_only_the_changed_fingerprint():
    scores = TangoScoreDatabase()
    members = build_fleet(_profiles(4), 8)
    engine = FleetInferenceEngine(members, scores=scores, seed=7, **FAST)
    cold = engine.infer_fleet(include_policy=False)
    assert cold.full_probe_runs == 4

    # One profile's switches drift (say a firmware update halves layer 0):
    # a fresh observation disagrees with the cached model, so the entry
    # for that fingerprint -- and only that one -- is dropped.
    drifted = engine.fingerprint_for(members[1], include_policy=False)
    stale = engine.cache.peek(drifted)
    assert stale is not None
    fresh_summary = stale.model.to_dict()
    fresh_summary["layers"][0]["size"] = fresh_summary["layers"][0]["size"] // 2
    findings = engine.cache.invalidate_if_drifted(drifted, fresh_summary)
    assert findings  # material size change -> drift
    assert engine.cache.peek(drifted) is None

    rerun = FleetInferenceEngine(
        members, scores=scores, seed=7, **FAST
    ).infer_fleet(include_policy=False)
    # Exactly one full probe (the drifted fingerprint's leader); its twin
    # coalesces onto it and the other 6 members stay cache hits.
    assert rerun.full_probe_runs == 1
    assert rerun.by_name(members[1].name).full_probe
    assert rerun.cache_hits == 6
    assert rerun.coalesced_joins == 1


def test_reprobe_member_without_drift_keeps_the_cache():
    scores = TangoScoreDatabase()
    members = build_fleet(_profiles(2), 2)
    engine = FleetInferenceEngine(members, scores=scores, seed=9, **FAST)
    engine.infer_fleet(include_policy=False)
    fingerprint = engine.fingerprint_for(members[0], include_policy=False)
    model, findings = engine.reprobe_member(members[0].name, include_policy=False)
    assert findings == []  # same switch, same seed: no drift
    assert engine.cache.peek(fingerprint) is not None
    assert model.name == members[0].name


def test_invalidate_if_drifted_on_missing_entry_is_empty():
    cache = ModelCache(TangoScoreDatabase())
    assert cache.invalidate_if_drifted("no-such-fingerprint", {"layers": []}) == []
    assert cache.invalidate("no-such-fingerprint") is False


# -- faults --------------------------------------------------------------------
def test_faulted_fleet_disables_coalescing_and_cache_stores():
    plan = FaultPlan(seed=5, loss_probability=0.05)
    members = build_fleet(_profiles(2), 4)

    def run():
        engine = FleetInferenceEngine(
            members,
            seed=21,
            fault_injector=FaultInjector(plan),
            retry_policy=RetryPolicy(),
            **FAST,
        )
        result = engine.infer_fleet(include_policy=False)
        return engine, result

    engine, result = run()
    # Fault decision streams are per switch name, so every member must
    # run its own probes; and a faulted run must never seed the cache.
    assert result.full_probe_runs == 4
    assert result.cache_hits == 0 and result.coalesced_joins == 0
    assert engine.cache.stores == 0
    # A fixed (seed, fleet, fault plan) replays exactly.
    _, replay = run()
    assert replay.summary() == result.summary()
    assert {n: m.to_dict() for n, m in replay.models.items()} == {
        n: m.to_dict() for n, m in result.models.items()
    }


# -- provenance and telemetry -----------------------------------------------------
def test_fleet_run_provenance_lands_in_tangodb():
    scores = TangoScoreDatabase()
    members = build_fleet(_profiles(2), 3)
    result = FleetInferenceEngine(
        members, scores=scores, seed=1, **FAST
    ).infer_fleet(include_policy=False)
    record = scores.get_record(
        FLEET_DB_SWITCH, "fleet_run", members=len(members)
    )
    assert record is not None
    assert record.source == "fleet_engine"
    assert record.value == result.summary()
    # The cache entries live under the fleet pseudo-switch too.
    cached = [
        r
        for r in scores.records_for_switch(FLEET_DB_SWITCH)
        if r.key.metric == MODEL_CACHE_METRIC
    ]
    assert len(cached) == 2


def test_fleet_driver_emits_spans_events_and_metrics():
    from repro.obs import Instruments, MetricsRegistry, Tracer

    tracer = Tracer()
    metrics = MetricsRegistry()
    members = build_fleet(_profiles(2), 4)
    result = FleetInferenceEngine(
        members,
        seed=3,
        instruments=Instruments(tracer=tracer, metrics=metrics),
        **FAST,
    ).infer_fleet(include_policy=False)

    spans = [e for e in tracer.events if e.name == "fleet.infer"]
    assert len(spans) == 1
    assert spans[0].attrs["members"] == 4
    assert spans[0].attrs["full_probes"] == 2
    assert spans[0].end_ms == pytest.approx(result.makespan_ms)
    starts = [e for e in tracer.events if e.name == "fleet.member_start"]
    finishes = [e for e in tracer.events if e.name == "fleet.member_finish"]
    assert len(starts) == len(finishes) == 4
    assert {e.attrs["source"] for e in finishes} == {"probe", "coalesced"}
    stages = [e for e in tracer.events if e.name == "fleet.stage"]
    assert {e.attrs["stage"] for e in stages} == {
        "size", "behavior", "latency_curves",
    }

    snapshot = metrics.snapshot()
    assert snapshot["fleet.members"] == 4
    assert snapshot["fleet.full_probes"] == 2
    assert snapshot["fleet.coalesced_joins"] == 2
    # Every member is admitted at t=0, before any store: all four look
    # up the cache and miss (the duplicates then coalesce).
    assert snapshot["fleet.cache_misses"] == 4
    assert snapshot["fleet.makespan_ms"] == pytest.approx(result.makespan_ms)


# -- the TangoDB secondary index ---------------------------------------------------
def test_score_db_index_matches_linear_scan_ordering():
    db = TangoScoreDatabase()
    for i in range(6):
        db.put(f"sw{i % 3}", "rtt", float(i), trial=i)
    db.put("sw0", "size", 42)
    # Overwrite an existing key: its position must not move.
    db.put("sw0", "rtt", 99.0, trial=0)

    def linear_scan(switch):
        return [r for r in db._records.values() if r.key.switch == switch]

    for switch in ("sw0", "sw1", "sw2"):
        indexed = db.records_for_switch(switch)
        assert indexed == linear_scan(switch)
    assert [r.value for r in db.records_for_switch("sw0")] == [99.0, 3.0, 42]
    assert db.metrics_for_switch("sw0") == ["rtt", "size"]
    assert db.switches() == ["sw0", "sw1", "sw2"]
    assert db.records_for_switch("absent") == []
    assert db.metrics_for_switch("absent") == []


def test_score_db_remove_maintains_index():
    db = TangoScoreDatabase()
    db.put("sw", "rtt", 1.0, trial=0)
    db.put("sw", "rtt", 2.0, trial=1)
    assert db.remove("sw", "rtt", trial=0) is True
    assert db.remove("sw", "rtt", trial=0) is False  # already gone
    assert [r.value for r in db.records_for_switch("sw")] == [2.0]
    assert len(db) == 1
    assert db.remove("sw", "rtt", trial=1) is True
    assert db.switches() == []  # empty bucket dropped
    assert db.records_for_switch("sw") == []
