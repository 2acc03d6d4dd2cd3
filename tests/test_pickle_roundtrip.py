"""Pickle round-trip regression tests for state a process boundary would carry.

Inferred models, score records, fleet cache entries, fault plans and
stream configs are plain values, so each must survive ``pickle`` with
value equality intact: a model that pickled into a different repr would
change a TangoDB signature (signatures compare ``repr(value)``).  No
fleet driver ships them between processes today; these tests keep the
types ready for one (EXPERIMENTS.md records what a two-process fleet
measured).
"""

import pickle

from repro.core.fleet import CachedModel, profile_fingerprint
from repro.core.inference import SwitchInferenceEngine
from repro.core.scores import TangoScoreDatabase
from repro.faults.plan import DisconnectWindow, FaultPlan
from repro.serve import StreamConfig
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import LRU


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def _profile():
    return make_cache_test_profile(
        LRU, layer_sizes=(48, None), layer_means_ms=(0.6, 5.0), name="pkl"
    )


def _model():
    return SwitchInferenceEngine(
        _profile(), seed=3, size_probe_max_rules=48, latency_batch_sizes=(8, 16)
    ).infer(include_policy=False)


def test_inferred_switch_model_roundtrips_by_value():
    model = _model()
    copy = _roundtrip(model)
    assert copy is not model
    assert copy.name == model.name
    assert copy.to_dict() == model.to_dict()
    # The merge protocol compares repr'd record values byte-for-byte.
    assert repr(copy) == repr(model)


def test_switch_profile_fingerprint_survives_pickling():
    profile = _profile()
    copy = _roundtrip(profile)
    # Fingerprints key the fleet model cache: a profile that pickles
    # into a different fingerprint would miss the cache and defeat
    # single-flight coalescing.
    assert profile_fingerprint(copy) == profile_fingerprint(profile)
    assert profile_fingerprint(copy, max_rules=48) == profile_fingerprint(
        profile, max_rules=48
    )


def test_score_record_roundtrips_with_key_equality():
    db = TangoScoreDatabase()
    db.put("sw1", "latency", {"p50": 1.5}, recorded_at_ms=2.0, source="t", batch=4)
    record = db.records()[0]
    copy = _roundtrip(record)
    assert copy.key == record.key
    assert hash(copy.key) == hash(record.key)
    assert copy.value == record.value
    assert copy.recorded_at_ms == record.recorded_at_ms
    assert copy.source == record.source


def test_cached_model_roundtrips_with_fingerprint_stability():
    model = _model()
    entry = CachedModel(
        fingerprint=profile_fingerprint(_profile()),
        model=model,
        origin="pkl",
        recorded_at_ms=9.5,
    )
    copy = _roundtrip(entry)
    assert copy.fingerprint == entry.fingerprint
    assert copy.origin == entry.origin
    assert copy.recorded_at_ms == entry.recorded_at_ms
    assert copy.model.to_dict() == model.to_dict()
    # clone_as on the unpickled model still renames without mutating.
    clone = copy.model.clone_as("other")
    assert clone.name == "other" and copy.model.name == "pkl"


def test_fault_plan_roundtrips_and_stays_frozen():
    plan = FaultPlan(
        seed=5,
        loss_probability=0.05,
        reject_probability=0.01,
        disconnects=(
            DisconnectWindow(start_ms=10.0, reconnect_at_ms=25.0, switch="sw1"),
        ),
    )
    copy = _roundtrip(plan)
    assert copy == plan
    assert copy.is_noop() is plan.is_noop() is False
    assert _roundtrip(FaultPlan(seed=1)).is_noop() is True


def test_stream_config_roundtrips_by_value():
    config = StreamConfig(arrivals=100, tenants=4, churn_interval_ms=50.0, seed=3)
    copy = _roundtrip(config)
    assert copy == config
