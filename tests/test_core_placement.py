"""Tests for inferred-model-driven flow placement."""

import pytest

from repro.core.inference import InferredSwitchModel, SwitchInferenceEngine
from repro.core.latency_curves import LatencyCurve, PriorityPattern
from repro.core.placement import FlowPlacer, FlowRequirements
from repro.core.size_inference import SizeProbeResult
from repro.core.clustering import Cluster
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import OVS_PROFILE, SWITCH_2


def _model(name, install_ms, fast_rtt_ms):
    model = InferredSwitchModel(name=name)
    model.latency_curves = {
        (FlowModCommand.ADD, PriorityPattern.ASCENDING): LatencyCurve(
            op=FlowModCommand.ADD,
            pattern=PriorityPattern.ASCENDING,
            linear_ms=install_ms,
            quadratic_ms=0.0,
        )
    }
    model.size_probe = SizeProbeResult(
        total_rules_installed=10,
        cache_full=False,
        clusters=[Cluster(mean_ms=fast_rtt_ms, lo_ms=fast_rtt_ms, hi_ms=fast_rtt_ms, count=10)],
        layers=[],
        rules_sent=10,
        packets_sent=10,
    )
    return model


SOFT = _model("soft", install_ms=0.05, fast_rtt_ms=3.0)
HARD = _model("hard", install_ms=5.0, fast_rtt_ms=0.5)


def test_requirements_validation():
    with pytest.raises(ValueError):
        FlowRequirements(expected_packets=-1)
    with pytest.raises(ValueError):
        FlowRequirements(expected_packets=1, setup_weight=-1)


def test_placer_needs_models():
    with pytest.raises(ValueError):
        FlowPlacer([])


def test_low_volume_flow_goes_to_software_switch():
    """The paper's intro example: startup latency matters, bandwidth low."""
    placer = FlowPlacer([SOFT, HARD])
    choice = placer.place(FlowRequirements(expected_packets=1))
    assert choice.switch == "soft"


def test_high_volume_flow_goes_to_hardware_switch():
    placer = FlowPlacer([SOFT, HARD])
    choice = placer.place(FlowRequirements(expected_packets=10_000))
    assert choice.switch == "hard"


def test_crossover_volume():
    placer = FlowPlacer([SOFT, HARD])
    crossover = placer.crossover_packets("soft", "hard")
    # install penalty 4.95 ms / forwarding gain 2.5 ms per packet ~ 1.98.
    assert crossover == pytest.approx(4.95 / 2.5)
    below = placer.place(FlowRequirements(expected_packets=crossover * 0.5))
    above = placer.place(FlowRequirements(expected_packets=crossover * 2))
    assert below.switch == "soft"
    assert above.switch == "hard"


def test_crossover_infinite_when_hardware_never_wins():
    slow_hard = _model("slowhard", install_ms=5.0, fast_rtt_ms=3.5)
    placer = FlowPlacer([SOFT, slow_hard])
    assert placer.crossover_packets("soft", "slowhard") == float("inf")


def test_setup_weight_shifts_the_decision():
    placer = FlowPlacer([SOFT, HARD])
    volume = 3.0  # just above the crossover at weight 1.0
    assert placer.place(FlowRequirements(volume, setup_weight=1.0)).switch == "hard"
    assert placer.place(FlowRequirements(volume, setup_weight=10.0)).switch == "soft"


def test_fill_level_raises_install_cost():
    quadratic = InferredSwitchModel(name="q")
    quadratic.latency_curves = {
        (FlowModCommand.ADD, PriorityPattern.ASCENDING): LatencyCurve(
            op=FlowModCommand.ADD,
            pattern=PriorityPattern.ASCENDING,
            linear_ms=0.1,
            quadratic_ms=0.01,
        )
    }
    placer = FlowPlacer([quadratic])
    empty = placer.score("q", FlowRequirements(0), fill_level=0)
    full = placer.score("q", FlowRequirements(0), fill_level=1000)
    assert full.install_ms > empty.install_ms


def test_unknown_candidate_rejected():
    placer = FlowPlacer([SOFT])
    with pytest.raises(KeyError):
        placer.place(FlowRequirements(1), candidates=["nope"])


def test_end_to_end_with_real_inference():
    """Probe a real software and hardware profile; verify the paper's
    qualitative placement rule emerges from measurements alone."""
    soft_model = SwitchInferenceEngine(
        OVS_PROFILE, seed=2, size_probe_max_rules=128, latency_batch_sizes=(40, 80)
    ).infer(include_policy=False)
    hard_model = SwitchInferenceEngine(
        SWITCH_2, seed=2, size_probe_max_rules=4096, latency_batch_sizes=(40, 80)
    ).infer(include_policy=False)
    placer = FlowPlacer([soft_model, hard_model])
    # A setup-critical, low-volume flow belongs on the software switch;
    # a high-volume flow amortises the hardware install cost.
    latency_sensitive = FlowRequirements(expected_packets=1, setup_weight=20.0)
    assert placer.place(latency_sensitive).switch == "ovs"
    assert placer.place(FlowRequirements(expected_packets=50_000)).switch == "switch2"
    # The hardware install penalty is measurable either way.
    assert (
        placer.score("switch2", latency_sensitive).install_ms
        > placer.score("ovs", latency_sensitive).install_ms
    )
