"""Tests for the virtual-time race detector (repro.analysis.racecheck)."""

from repro.analysis.racecheck import (
    AccessKind,
    RaceSanitizer,
    check_races,
    run_racy_fixture,
)
from repro.core.fleet import FleetInferenceEngine, ModelCache, build_fleet
from repro.core.inference import InferredSwitchModel
from repro.core.scores import TangoScoreDatabase
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO, LRU

FAST = {"size_probe_max_rules": 128, "latency_batch_sizes": (20, 60)}


def _profiles(count):
    policies = [FIFO, LRU]
    return [
        make_cache_test_profile(
            policies[i % len(policies)],
            layer_sizes=(32 + 16 * i, None),
            layer_means_ms=(0.5 + 0.1 * i, 4.5 + 0.5 * i),
            name=f"rc{i}",
        )
        for i in range(count)
    ]


# -- the access model ----------------------------------------------------------
def test_root_context_accesses_never_race():
    sanitizer = RaceSanitizer()
    sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    # Two conflicting writes, both from straight-line root code.
    scores.put("s1", "m", 1)
    scores.put("s1", "m", 2)
    result = sanitizer.check()
    assert result.accesses == 2
    assert result.events == 0
    assert result.findings == []


def test_same_time_unordered_writes_race():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    sim.schedule_at(3.0, lambda: scores.put("s1", "m", 1))
    sim.schedule_at(3.0, lambda: scores.put("s1", "m", 2))
    sim.run()
    result = sanitizer.check()
    findings = result.findings
    assert len(findings) == 1
    assert findings[0].code == "TNG040"
    assert "t=3.000ms" in findings[0].location
    # Full access trace with (time, sequence) per entry.
    assert len(findings[0].trace) == 2
    assert all("t=3.000ms seq=" in line for line in findings[0].trace)


def test_scheduling_ancestry_is_a_happens_before_edge():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())

    def writer():
        scores.put("s1", "m", 1)
        # Same virtual instant, but scheduled *by* the writer.
        sim.call_soon(lambda: scores.get("s1", "m"))

    sim.schedule_at(3.0, writer)
    sim.run()
    assert sanitizer.check().findings == []


def test_different_virtual_times_do_not_race():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    sim.schedule_at(3.0, lambda: scores.put("s1", "m", 1))
    sim.schedule_at(4.0, lambda: scores.put("s1", "m", 2))
    sim.run()
    assert sanitizer.check().findings == []


def test_reads_alone_do_not_race():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    scores.put("s1", "m", 1)
    sim.schedule_at(3.0, lambda: scores.get("s1", "m"))
    sim.schedule_at(3.0, lambda: scores.get("s1", "m"))
    sim.run()
    assert sanitizer.check().findings == []


def test_different_locations_do_not_race():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    sim.schedule_at(3.0, lambda: scores.put("s1", "m", 1))
    sim.schedule_at(3.0, lambda: scores.put("s2", "m", 2))
    sim.run()
    assert sanitizer.check().findings == []


def test_commutative_metric_updates_do_not_race():
    from repro.obs.metrics import MetricsRegistry

    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    metrics = sanitizer.wrap_metrics(MetricsRegistry())
    sim.schedule_at(3.0, lambda: metrics.counter("fleet.ops").inc())
    sim.schedule_at(3.0, lambda: metrics.counter("fleet.ops").inc())
    sim.schedule_at(3.0, lambda: metrics.histogram("fleet.lat").observe(1.0))
    sim.run()
    assert sanitizer.check().findings == []
    # The underlying registry still saw every update.
    assert metrics.counter("fleet.ops").value == 2.0


def test_gauge_set_is_a_racy_write():
    from repro.obs.metrics import MetricsRegistry

    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    metrics = sanitizer.wrap_metrics(MetricsRegistry())
    sim.schedule_at(3.0, lambda: metrics.gauge("fleet.depth").set(1.0))
    sim.schedule_at(3.0, lambda: metrics.gauge("fleet.depth").set(2.0))
    sim.run()
    findings = sanitizer.check().findings
    assert len(findings) == 1
    assert "metric:fleet.depth" in findings[0].location


def test_whole_switch_scan_conflicts_with_same_time_write():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    sim.schedule_at(3.0, lambda: scores.put("s1", "m", 1))
    sim.schedule_at(3.0, lambda: scores.records_for_switch("s1"))
    sim.run()
    findings = sanitizer.check().findings
    assert len(findings) == 1
    assert any("records_for_switch" in line for line in findings[0].trace)


def test_duplicate_pairs_reported_once():
    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())

    def double_write(value):
        def action():
            scores.put("s1", "m", value)
            scores.put("s1", "m", value + 1)

        return action

    sim.schedule_at(3.0, double_write(0))
    sim.schedule_at(3.0, double_write(10))
    sim.run()
    # Four conflicting cross-event combinations, one event pair.
    assert len(sanitizer.check().findings) == 1


def test_check_races_result_summary_shape():
    result = run_racy_fixture()
    summary = result.summary()
    assert summary["findings"] == 1
    assert summary["accesses"] == result.accesses
    assert summary["events"] >= 2
    payload = summary["diagnostics"][0]
    assert payload["code"] == "TNG040"
    assert len(payload["trace"]) == 2


# -- sanitizer proxies delegate faithfully -------------------------------------
def test_sanitized_scores_delegate_every_operation():
    sanitizer = RaceSanitizer()
    scores = sanitizer.wrap_scores(TangoScoreDatabase())
    scores.put("s1", "m", 41, recorded_at_ms=2.0, source="test", k=1)
    assert scores.get("s1", "m", k=1) == 41
    assert scores.has("s1", "m", k=1)
    assert scores.get_record("s1", "m", k=1).source == "test"
    assert [r.value for r in scores.records_for_switch("s1")] == [41]
    assert scores.metrics_for_switch("s1") == ["m"]
    assert scores.switches() == ["s1"]
    assert len(scores) == 1
    assert scores.remove("s1", "m", k=1)
    assert len(scores) == 0
    kinds = [access.kind for access in sanitizer.log]
    assert AccessKind.WRITE in kinds and AccessKind.READ in kinds


def test_sanitized_cache_logs_against_the_db_location():
    sanitizer = RaceSanitizer()
    cache = sanitizer.wrap_cache(ModelCache(TangoScoreDatabase()))
    model = InferredSwitchModel(name="m1")
    cache.store("fp", model, origin="m1", recorded_at_ms=1.0)
    assert cache.lookup("fp") is not None
    assert cache.invalidate("fp")
    locations = {access.location for access in sanitizer.log}
    assert locations == {"db:__fleet__/model_cache?fingerprint=fp"}
    # Counter passthrough still works through the proxy.
    assert cache.hits == 1 and cache.stores == 1 and cache.invalidations == 1


# -- the regression fixture (both sides of the detector) -----------------------
def test_racy_fixture_flags_exactly_the_unordered_pair():
    result = run_racy_fixture()
    findings = result.findings
    assert len(findings) == 1
    finding = findings[0]
    assert "racy-fixture-0" in finding.location
    assert "safe-fixture" not in finding.location
    owners = "".join(finding.trace)
    assert "owner=racy-a" in owners and "owner=racy-b" in owners


def test_racy_fixture_is_seed_parameterised():
    result = run_racy_fixture(seed=7)
    assert "racy-fixture-7" in result.findings[0].location


# -- fleet integration ---------------------------------------------------------
def test_clean_fleet_run_reports_zero_findings():
    sanitizer = RaceSanitizer()
    engine = FleetInferenceEngine(
        build_fleet(_profiles(2), 4), seed=0, sanitizer=sanitizer, **FAST
    )
    fleet_result = engine.infer_fleet(include_policy=False)
    races = sanitizer.check()
    assert len(fleet_result.members) == 4
    assert races.findings == []
    assert races.accesses > 0
    assert races.events > 0


def test_faulted_fleet_run_reports_zero_findings():
    from repro.faults import FaultInjector, RetryPolicy
    from repro.netem.scenarios import FAULT_SCENARIOS

    plan = FAULT_SCENARIOS["lossy"].plan(3)
    sanitizer = RaceSanitizer()
    engine = FleetInferenceEngine(
        build_fleet(_profiles(2), 3),
        seed=3,
        sanitizer=sanitizer,
        fault_injector=FaultInjector(plan),
        retry_policy=RetryPolicy(),
        **FAST,
    )
    fleet_result = engine.infer_fleet(include_policy=False)
    races = sanitizer.check()
    assert len(fleet_result.members) == 3
    assert races.findings == []


def test_sanitized_run_is_byte_identical_to_bare_run():
    def run(sanitizer):
        scores = TangoScoreDatabase()
        engine = FleetInferenceEngine(
            build_fleet(_profiles(2), 4), scores=scores, seed=0, sanitizer=sanitizer, **FAST
        )
        result = engine.infer_fleet(include_policy=False)
        models = {name: model.to_dict() for name, model in result.models.items()}
        records = {
            switch: [
                (r.key, r.recorded_at_ms, r.source) for r in scores.records_for_switch(switch)
            ]
            for switch in scores.switches()
        }
        return result.summary(), models, records

    bare = run(None)
    sanitizer = RaceSanitizer()
    assert run(sanitizer) == bare
    races = sanitizer.check()
    assert races.findings == []
    assert races.accesses > 0


def test_check_races_empty_log_is_clean():
    from repro.analysis.racecheck import AccessLog
    from repro.sim.events import ProvenanceRecorder

    result = check_races(AccessLog(), ProvenanceRecorder())
    assert result.findings == []
    assert result.accesses == 0


def _all_pairs_reference(log, provenance, max_findings):
    """Every same-time, same-location pair compared, as check_races once did."""
    from repro.analysis.diagnostics import DiagnosticReport, Severity
    from repro.analysis.racecheck import _conflicts

    report = DiagnosticReport()
    buckets, wildcards = {}, {}
    for access in log:
        if access.sequence is None:
            continue
        if access.location.endswith("/*"):
            wildcards.setdefault(access.time_ms, []).append(access)
        else:
            buckets.setdefault(access.time_ms, {}).setdefault(
                access.location, []
            ).append(access)
    seen, findings = set(), [0]

    def flag(location, time_ms, a, b, group):
        lo, hi = sorted((a.sequence, b.sequence))
        if (location, time_ms, lo, hi) in seen:
            return
        seen.add((location, time_ms, lo, hi))
        if provenance.ordered(a.sequence, b.sequence) or findings[0] >= max_findings:
            return
        findings[0] += 1
        owners = " vs ".join(f"{x.owner or '-'}:{x.op or x.kind.value}" for x in (a, b))
        report.add(
            "TNG040",
            Severity.ERROR,
            f"tie-break race on {location}: events {lo} and {hi} conflict at "
            f"t={time_ms:.3f}ms with no happens-before edge ({owners})",
            location=f"{location} @ t={time_ms:.3f}ms",
            hint="order the accesses through the event queue (schedule one "
            "from the other) or make the update commutative",
            trace=tuple(x.format() for x in group),
        )

    for time_ms in sorted(set(buckets) | set(wildcards)):
        groups = buckets.get(time_ms, {})
        for location in sorted(groups):
            group = groups[location]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if _conflicts(group[i], group[j]):
                        flag(location, time_ms, group[i], group[j], group)
        for scan in wildcards.get(time_ms, []):
            for location in sorted(groups):
                if location.startswith(scan.location[:-1]):
                    for other in groups[location]:
                        if other.kind is AccessKind.WRITE and _conflicts(scan, other):
                            flag(location, time_ms, scan, other, groups[location] + [scan])
    return report.to_dicts()


def test_check_races_matches_all_pairs_comparison_on_random_logs():
    """Comparing class representatives flags exactly what comparing every
    pair does: same findings, messages, traces and order."""
    import random

    from repro.analysis.racecheck import Access, AccessLog
    from repro.sim.events import ProvenanceRecorder

    locations = ["db:s1/a", "db:s1/b", "db:s2/a", "metric:m", "db:s1/*", "db:s2/*"]
    for seed in range(40):
        rng = random.Random(seed)
        provenance = ProvenanceRecorder()
        for sequence in range(12):
            parent = rng.choice([None, None] + list(range(sequence)))
            provenance.parents[sequence] = parent
        log = AccessLog()
        for _ in range(rng.randint(20, 120)):
            location = rng.choice(locations)
            kind = AccessKind.READ if location.endswith("/*") else rng.choice(list(AccessKind))
            log.record(
                Access(
                    kind=kind,
                    location=location,
                    time_ms=float(rng.randint(0, 2)),
                    sequence=rng.choice([None] + list(range(12))),
                    owner=rng.choice([None, "a", "b"]),
                    op=rng.choice(["put", "get", "inc"]),
                    commutative=kind is AccessKind.WRITE and rng.random() < 0.4,
                )
            )
        cap = rng.choice([3, 100])
        expected = _all_pairs_reference(log, provenance, cap)
        result = check_races(log, provenance, max_findings=cap)
        assert result.report.to_dicts() == expected
