"""Golden pins for the probe path: one sha256 per seeded inference run.

Each digest covers the inferred model (``to_dict()``), the run's total
virtual probing time and probe-op count, and, for every probing engine
the run built, the probed switch's stats and the channel's message
count.  A change to how probe messages are built, forwarded or
accounted must leave every digest unchanged; only a deliberate change
to the simulated behaviour may re-pin them.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.inference import SwitchInferenceEngine
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.switches.profiles import VENDOR_PROFILES, make_cache_test_profile
from repro.tables.policies import LRU

#: Reduced probe knobs so the four vendor runs stay fast.
SMALL = dict(size_probe_max_rules=5000, latency_batch_sizes=(20, 60))


def run_digest(engine: SwitchInferenceEngine) -> str:
    model = engine.infer()
    engines = [
        {
            "stats": dataclasses.asdict(probe.channel.switch.stats),
            "history": len(probe.channel.history),
        }
        for probe in engine.probe_engines
    ]
    payload = json.dumps(
        {
            "model": model.to_dict(),
            "virtual_cost_ms": engine.virtual_cost_ms().hex(),
            "probe_ops": engine.probe_ops(),
            "engines": engines,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN = {
    "ovs": "2556162f1875cac1dc780336c772c4aba8c0be5593de5f8889d4823aea298f88",
    "switch1": "80f49fa07a2e97e830990461b5ce67477a616509d79fb8ea5550f612aba15989",
    "switch2": "e1f26bd988aa2244d210268921e6e4af06f07d5a15cfb737d670ae856bc1aaf6",
    "switch3": "f92170df0d398c357b337983c74fd751196a5dd249ff89921368c58c5773b4ed",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vendor_inference_digest_is_pinned(name):
    engine = SwitchInferenceEngine(VENDOR_PROFILES[name], seed=3, **SMALL)
    assert run_digest(engine) == GOLDEN[name]


def test_multi_layer_policy_inference_digest_is_pinned():
    """A three-layer cache profile, so the policy prober (Algorithm 2) runs."""
    profile = make_cache_test_profile(LRU, layer_sizes=(32, 64, None))
    engine = SwitchInferenceEngine(profile, seed=5, **dict(SMALL, size_probe_max_rules=1024))
    assert run_digest(engine) == (
        "e63c2a3f72e83be24d29c0781e42af2eb52d19611ef488a327275151c5487d0a"
    )
    assert engine.scores.get(profile.name, "switch_model").policy_probe is not None


def test_faulted_inference_digest_is_pinned():
    """Lossy control channel with retries: fault and backoff draws included."""
    engine = SwitchInferenceEngine(
        VENDOR_PROFILES["switch2"],
        seed=7,
        fault_injector=FaultInjector(FaultPlan(seed=5, loss_probability=0.05)),
        retry_policy=RetryPolicy(),
        **SMALL,
    )
    assert run_digest(engine) == (
        "fa328f48c3723143c19cd1c0fc6c0ec5b7eeb27e8bdccb9febe24f255c39c4d2"
    )
