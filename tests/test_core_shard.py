"""Tests for sharded fleet inference (repro.core.shard).

The contract under test is byte-identity: whatever the shard count,
partition strategy, or worker backend, a sharded run must merge back
into *exactly* the global record order, models, timings, and summary
the single-queue :class:`repro.core.fleet.FleetInferenceEngine`
produces.  Every identity assertion below compares full TangoDB
contents (keys, repr'd values, timestamps, sources, insertion order),
not just summaries.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fleet import FleetInferenceEngine, FleetMember, build_fleet
from repro.core.scores import TangoScoreDatabase
from repro.core.shard import SHARD_BACKENDS, ShardedFleetEngine
from repro.faults import FaultInjector, RetryPolicy
from repro.faults.plan import FaultPlan
from repro.perf.workloads import SHARDED_BENCH_KNOBS, sharded_fleet_profiles
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO, LIFO, LRU, PRIORITY_CACHE

#: Small knobs so a full probe run stays fast while hitting every stage.
FAST = {"size_probe_max_rules": 48, "latency_batch_sizes": (8, 16)}

#: Tier-named behaviourally distinct profiles: one per fat-tree tier
#: plus a bare vendor-style name (edge by default).
SPECS = [
    ("core-0", FIFO, (64, None), (0.5, 4.8)),
    ("aggr-1", LRU, (48, None), (0.6, 5.0)),
    ("edge-2", LIFO, (96, None), (0.4, 4.2)),
    ("prof-3", PRIORITY_CACHE, (80, None), (0.7, 5.2)),
]


def _profiles(count=4):
    return [
        make_cache_test_profile(
            policy, layer_sizes=sizes, layer_means_ms=means, name=name
        )
        for name, policy, sizes, means in SPECS[:count]
    ]


def _db_signature(db):
    """Byte-comparable digest of TangoDB contents, in insertion order."""
    return tuple(
        (record.key, repr(record.value), record.recorded_at_ms, record.source)
        for record in db.records()
    )


def _run_legacy(members, scores=None, seed=7, knobs=FAST, **kwargs):
    engine = FleetInferenceEngine(
        members, scores=scores if scores is not None else TangoScoreDatabase(),
        seed=seed, **knobs, **kwargs,
    )
    result = engine.infer_fleet(include_policy=False)
    return engine, result


def _run_sharded(
    members, scores=None, shards=1, backend="inline", seed=7, knobs=FAST, **kwargs
):
    engine = ShardedFleetEngine(
        members, scores=scores if scores is not None else TangoScoreDatabase(),
        seed=seed, shards=shards, backend=backend, **knobs, **kwargs,
    )
    result = engine.infer_fleet(include_policy=False)
    return engine, result


def _assert_identical(sharded, legacy):
    sharded_engine, sharded_result = sharded
    legacy_engine, legacy_result = legacy
    assert json.dumps(sharded_result.summary(), sort_keys=True) == json.dumps(
        legacy_result.summary(), sort_keys=True
    )
    assert _db_signature(sharded_engine.scores) == _db_signature(
        legacy_engine.scores
    )
    for mine, theirs in zip(sharded_result.members, legacy_result.members):
        assert mine.model.to_dict() == theirs.model.to_dict()
    assert (
        sharded_engine.cache.hits,
        sharded_engine.cache.misses,
        sharded_engine.cache.stores,
    ) == (
        legacy_engine.cache.hits,
        legacy_engine.cache.misses,
        legacy_engine.cache.stores,
    )


# -- byte-identity with the single-queue engine --------------------------------
def test_one_shard_matches_single_queue_engine_exactly():
    members = build_fleet(_profiles(), 6)
    _assert_identical(_run_sharded(members, shards=1), _run_legacy(members))


@pytest.mark.parametrize("shards", [2, 4, 7])
@pytest.mark.parametrize("partition", ["round_robin", "tier"])
def test_every_shard_count_and_partition_merges_identically(shards, partition):
    members = build_fleet(_profiles(), 6)
    _assert_identical(
        _run_sharded(members, shards=shards, partition=partition),
        _run_legacy(members),
    )


def test_bench_geometry_matches_single_queue_engine():
    """The ``sharded_fleet`` gate's own fleet and geometry: 64
    distinct-fingerprint tier-named members over 4 tier shards."""
    members = build_fleet(sharded_fleet_profiles(64), 64)
    bench = {"seed": 3, "knobs": SHARDED_BENCH_KNOBS}
    _assert_identical(
        _run_sharded(members, shards=4, partition="tier", **bench),
        _run_legacy(members, **bench),
    )


def test_fixed_seed_replays_byte_identically_at_any_shard_count():
    members = build_fleet(_profiles(3), 5)
    first = _run_sharded(members, shards=3, partition="tier")
    second = _run_sharded(members, shards=3, partition="tier")
    _assert_identical(first, second)


def test_warm_cache_run_matches_legacy():
    members = build_fleet(_profiles(2), 4)
    # Warm a database with a legacy run, then re-run both engines on
    # (copies of) it: every member must hit the model cache at t=0.
    warm_engine, _ = _run_legacy(members)
    legacy_db = TangoScoreDatabase()
    sharded_db = TangoScoreDatabase()
    for db in (legacy_db, sharded_db):
        for record in warm_engine.scores.records():
            db.put(
                record.key.switch,
                record.key.metric,
                record.value,
                recorded_at_ms=record.recorded_at_ms,
                source=record.source,
                **dict(record.key.params),
            )
    sharded = _run_sharded(members, scores=sharded_db, shards=2)
    legacy = _run_legacy(members, scores=legacy_db)
    _assert_identical(sharded, legacy)
    assert sharded[1].makespan_ms == 0.0  # every lookup is a warm hit
    assert all(member.cache_hit for member in sharded[1].members)


def test_cross_shard_coalescing_drops_duplicate_leaders():
    # 6 members over 2 profiles: every fingerprint appears on all 3
    # round-robin shards, so 2 global leaders survive and 4 shard-local
    # probes are dropped at merge (2 of them wasted worker probes).
    members = build_fleet(_profiles(2), 6)
    sharded = _run_sharded(members, shards=3, partition="round_robin")
    _assert_identical(sharded, _run_legacy(members))
    stats = sharded[0].shard_stats
    assert sharded[1].full_probe_runs == 2
    assert stats["cross_shard_coalesced"] == 4
    assert stats["wasted_probe_ops"] > 0


def test_faulted_run_matches_legacy_and_disables_coalescing():
    plan = FaultPlan(seed=5, loss_probability=0.05)
    members = build_fleet(_profiles(2), 4)
    sharded = _run_sharded(
        members,
        shards=2,
        fault_injector=FaultInjector(plan),
        retry_policy=RetryPolicy(),
    )
    legacy = _run_legacy(
        members, fault_injector=FaultInjector(plan), retry_policy=RetryPolicy()
    )
    _assert_identical(sharded, legacy)
    # A lossy plan disables single-flight joins and cache stores.
    assert sharded[1].full_probe_runs == 4
    assert sharded[1].coalesced_joins == 0


def test_uncached_run_matches_legacy():
    members = build_fleet(_profiles(2), 4)
    _assert_identical(
        _run_sharded(members, shards=2, use_cache=False),
        _run_legacy(members, use_cache=False),
    )


def test_virtual_time_ties_break_identically():
    # Five identical members (same profile, same explicit seed) finish
    # at exactly the same virtual instant on every shard; the merge
    # must fall back to global member index, like the single queue.
    profile = _profiles(1)[0]
    members = [
        FleetMember(name=f"tie-{i}", profile=profile, seed=11) for i in range(5)
    ]
    _assert_identical(
        _run_sharded(members, shards=3, use_cache=False),
        _run_legacy(members, use_cache=False),
    )


# -- process backend -----------------------------------------------------------
def test_process_backend_matches_inline():
    members = build_fleet(_profiles(2), 4)
    _assert_identical(
        _run_sharded(members, shards=2, backend="process"),
        _run_sharded(members, shards=2, backend="inline"),
    )


def test_spawn_start_method_matches_inline():
    # Spawn pickles every task into a fresh interpreter -- the strictest
    # portability check on the shard task/result protocol.
    members = build_fleet(_profiles(2), 2)
    _assert_identical(
        _run_sharded(
            members, shards=2, backend="process", mp_start_method="spawn"
        ),
        _run_sharded(members, shards=2, backend="inline"),
    )


# -- validation and stats ------------------------------------------------------
def test_constructor_rejects_bad_geometry():
    members = build_fleet(_profiles(1), 2)
    with pytest.raises(ValueError, match="shards must be positive"):
        ShardedFleetEngine(members, shards=0)
    with pytest.raises(ValueError, match="unknown partition strategy"):
        ShardedFleetEngine(members, partition="hash")
    with pytest.raises(ValueError, match="unknown shard backend"):
        ShardedFleetEngine(members, backend="threads")
    with pytest.raises(ValueError, match="duplicate fleet member names"):
        ShardedFleetEngine([members[0], members[0]])
    with pytest.raises(ValueError, match="at least one member"):
        ShardedFleetEngine([])
    assert SHARD_BACKENDS == ("inline", "process")


def test_shard_stats_shape():
    members = build_fleet(_profiles(3), 6)
    engine, result = _run_sharded(members, shards=3, partition="tier")
    stats = engine.shard_stats
    assert stats["shards"] == 3 and stats["backend"] == "inline"
    assert stats["partition"] == "tier" and stats["members"] == 6
    assert len(stats["per_shard"]) == 3
    assert sum(shard["members"] for shard in stats["per_shard"]) == 6
    assert all(shard["events"] > 0 for shard in stats["per_shard"])
    # Per-shard makespans can only be reached, never exceeded, by the
    # merged global makespan.
    assert result.makespan_ms == pytest.approx(
        max(shard["makespan_ms"] for shard in stats["per_shard"]), abs=1e-3
    )


# -- property: arbitrary fleets and warm databases -----------------------------
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    data=st.data(),
    copies=st.integers(min_value=1, max_value=6),
    shards=st.sampled_from([1, 2, 4, 7]),
    partition=st.sampled_from(["round_robin", "tier"]),
)
def test_property_random_fleet_merges_byte_identically(
    data, copies, shards, partition
):
    profile_count = data.draw(st.integers(min_value=1, max_value=3))
    members = build_fleet(_profiles(profile_count), copies)
    legacy_db = TangoScoreDatabase()
    sharded_db = TangoScoreDatabase()
    # Interleave unrelated puts and removes into both databases so the
    # merge must preserve pre-existing insertion order around its own
    # records, not just append to an empty store.
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "remove"]),
                st.sampled_from(["s1", "s2", "s3"]),
                st.sampled_from(["latency", "drops"]),
                st.integers(min_value=0, max_value=99),
            ),
            max_size=8,
        )
    )
    for db in (legacy_db, sharded_db):
        for op, switch, metric, value in ops:
            if op == "put":
                db.put(switch, metric, value, source="property-test")
            else:
                db.remove(switch, metric)
    _assert_identical(
        _run_sharded(members, scores=sharded_db, shards=shards, partition=partition),
        _run_legacy(members, scores=legacy_db),
    )
