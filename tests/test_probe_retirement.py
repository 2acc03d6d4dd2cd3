"""Finished probe switches are retired: rules dropped, accounting kept.

`SwitchInferenceEngine` builds a fresh simulated switch per probe
measurement.  Once a measurement is over, the switch's rules and the
probing engine's handles are dropped, while its clock, counters, switch
stats and channel counters stay for `virtual_cost_ms()` / `probe_ops()`.
"""

import pytest

from repro.core.behavior_inference import BehaviorProber
from repro.core.inference import SwitchInferenceEngine
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.switches.profiles import VENDOR_PROFILES

SMALL = dict(size_probe_max_rules=5000, latency_batch_sizes=(20, 60))


def assert_all_retired(engine: SwitchInferenceEngine) -> None:
    assert engine.probe_engines
    for probe in engine.probe_engines:
        assert probe.flows == []
        assert probe.channel.switch.num_flows == 0


def test_infer_retires_every_probe_switch():
    engine = SwitchInferenceEngine(VENDOR_PROFILES["switch1"], seed=3, **SMALL)
    engine.infer()
    assert_all_retired(engine)
    # Retired switches keep what the accounting reads.
    assert all(p.channel.clock.now_ms > 0 for p in engine.probe_engines)
    assert all(p.channel.messages for p in engine.probe_engines)
    assert all(p.channel.switch.stats.adds > 0 for p in engine.probe_engines)
    assert engine.probe_ops() > 0


def test_standalone_size_then_policy_stages_retire_their_switches():
    engine = SwitchInferenceEngine(VENDOR_PROFILES["switch1"], seed=3, **SMALL)
    size = engine.infer_sizes()
    assert_all_retired(engine)
    cost_after_size = engine.virtual_cost_ms()
    policy = engine.infer_policy(size.layers[0].estimated_size)
    assert policy.terms
    assert len(engine.probe_engines) == 2
    assert_all_retired(engine)
    assert engine.virtual_cost_ms() > cost_after_size


def test_faulted_inference_retires_every_probe_switch():
    engine = SwitchInferenceEngine(
        VENDOR_PROFILES["switch2"],
        seed=7,
        fault_injector=FaultInjector(FaultPlan(seed=5, loss_probability=0.05)),
        retry_policy=RetryPolicy(),
        **SMALL,
    )
    engine.infer()
    assert_all_retired(engine)


def test_failed_stage_still_retires_its_switch(monkeypatch):
    def install_then_fail(prober):
        prober.engine.install_new_flow(priority=100)
        raise RuntimeError("probe failed")

    monkeypatch.setattr(BehaviorProber, "probe", install_then_fail)
    engine = SwitchInferenceEngine(VENDOR_PROFILES["switch3"], seed=1, **SMALL)
    with pytest.raises(RuntimeError, match="probe failed"):
        engine.infer_behavior()
    assert engine.probe_engines[-1].installs_completed == 1
    assert_all_retired(engine)
