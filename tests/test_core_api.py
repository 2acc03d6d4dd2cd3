"""Tests for the Tango controller facade and score database."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.api import Tango
from repro.core.requests import RequestDag
from repro.core.scores import TangoScoreDatabase
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import SWITCH_3, make_cache_test_profile
from repro.tables.policies import FIFO


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


# -- score database ---------------------------------------------------------------
def test_scores_put_get_roundtrip():
    db = TangoScoreDatabase()
    db.put("s1", "metric", 42, foo="bar")
    assert db.get("s1", "metric", foo="bar") == 42
    assert db.get("s1", "metric") is None  # different params
    assert db.get("s1", "metric", default=7) == 7


def test_scores_has_and_len():
    db = TangoScoreDatabase()
    assert not db.has("s", "m")
    db.put("s", "m", 1)
    assert db.has("s", "m")
    assert len(db) == 1


def test_scores_overwrite_same_key():
    db = TangoScoreDatabase()
    db.put("s", "m", 1)
    db.put("s", "m", 2)
    assert db.get("s", "m") == 2
    assert len(db) == 1


def test_scores_per_switch_queries():
    db = TangoScoreDatabase()
    db.put("a", "m1", 1)
    db.put("a", "m2", 2)
    db.put("b", "m1", 3)
    assert db.metrics_for_switch("a") == ["m1", "m2"]
    assert len(db.records_for_switch("b")) == 1


# -- Tango facade ------------------------------------------------------------------
def test_register_profile_and_duplicate_rejected():
    tango = Tango(seed=1)
    name = tango.register_profile(SWITCH_3)
    assert name == "switch3"
    assert tango.switch_names == ["switch3"]
    with pytest.raises(ValueError):
        tango.register_profile(SWITCH_3)


def test_register_custom_name():
    tango = Tango(seed=1)
    assert tango.register_profile(SWITCH_3, name="edge-1") == "edge-1"
    assert tango.switch("edge-1") is not None


def test_register_existing_switch():
    tango = Tango(seed=1)
    switch = SWITCH_3.build(seed=5)
    tango.register_switch(switch)
    assert tango.switch("switch3") is switch


def test_infer_requires_profile():
    tango = Tango(seed=1)
    switch = SWITCH_3.build(seed=5)
    tango.register_switch(switch)
    with pytest.raises(KeyError):
        tango.infer("switch3")


def test_infer_small_profile_end_to_end():
    tango = Tango(seed=2)
    profile = make_cache_test_profile(FIFO, (32, None), layer_means_ms=(0.5, 3.0))
    name = tango.register_profile(profile)
    model = tango.infer(
        name,
        include_policy=True,
        size_probe_max_rules=256,
        latency_batch_sizes=(40, 80),
    )
    assert model.layer_sizes[0] is not None
    # The tiny cache (32 of 256 rules) caps the sampling budget; accuracy
    # at the paper's scale is asserted in test_core_size_inference.
    assert abs(model.layer_sizes[0] - 32) <= 4
    assert model.policy_probe is not None
    assert tango.model(name) is model
    # Inference results land in the shared score database.
    assert tango.scores.has(profile.name, "size_probe")


_INFER_SCRIPT = """
import json
from repro.core.api import Tango
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO

tango = Tango(seed=2)
name = tango.register_profile(
    make_cache_test_profile(FIFO, (32, None), layer_means_ms=(0.5, 3.0))
)
model = tango.infer(name, size_probe_max_rules=256, latency_batch_sizes=(40, 80))
print(json.dumps(model.to_dict(), sort_keys=True))
"""


def test_infer_replays_across_processes():
    """Same seed, same model, whatever Python's per-process hash salt."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    models = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", _INFER_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        models.append(json.loads(completed.stdout))
    assert models[0] == models[1]


def test_schedule_via_facade():
    tango = Tango(seed=3)
    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    tango.register_profile(profile, name="sw")
    dag = RequestDag()
    for i in range(10):
        dag.new_request("sw", FlowModCommand.ADD, _match(i), priority=i)
    result = tango.schedule(dag)
    assert result.total_requests == 10
    assert result.makespan_ms > 0


@pytest.mark.parametrize("variant", ["basic", "prefix", "concurrent"])
def test_all_scheduler_variants(variant):
    tango = Tango(seed=4)
    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    tango.register_profile(profile, name="sw")
    dag = RequestDag()
    first = dag.new_request("sw", FlowModCommand.ADD, _match(0))
    dag.new_request("sw", FlowModCommand.ADD, _match(1), after=[first])
    result = tango.schedule(dag, variant=variant)
    assert result.total_requests == 2


def test_unknown_variant_rejected():
    tango = Tango(seed=4)
    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    tango.register_profile(profile, name="sw")
    dag = RequestDag()
    dag.new_request("sw", FlowModCommand.ADD, _match(0))
    with pytest.raises(ValueError):
        tango.schedule(dag, variant="bogus")


def test_measured_patterns_used_after_inference():
    tango = Tango(seed=5)
    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    name = tango.register_profile(profile, name="sw")
    tango.infer(name, include_policy=False)
    dag = RequestDag()
    dag.new_request("sw", FlowModCommand.ADD, _match(0))
    scheduler = tango.make_scheduler(dag)
    # Patterns must come from the inferred model, not the defaults.
    assert all("ASCEND" in p.name or "DESCEND" in p.name for p in scheduler.oracle.patterns)
    model = tango.model(name)
    assert len(model.rewrite_patterns()) == 2
