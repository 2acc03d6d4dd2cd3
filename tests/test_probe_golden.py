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
            "history": probe.channel.messages,
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
    "ovs": "5c56934ac5c96d77117b853a2d4868117deb9f8413b831cc2691c5cf815cd553",
    "switch1": "79bab1739ebe35d1f60ff251f283c9f4155743fe76a78a9ca4a020947e1ea802",
    "switch2": "21268f0cb4aea34efd59490038d24c2c7a79dbe59fdc295ae8231701c65e57ac",
    "switch3": "9493e5d8c17c9c815a86eee76b82a9632597991efcb0a375783466a9f915f929",
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
        "58ddca7715d202807a60abe1fed72a748835d29db608937556ebdc77ab512302"
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
        "2aa9f7b5645ab1d602dfef3404a9bbf51dd5920495d1559b92fea85b762bb66f"
    )
