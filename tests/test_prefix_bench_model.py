"""Golden ADD curves of the Switch #1 model the install benches plan with.

``install_classbench`` and ``install_prefix`` derive their rewrite
patterns and the prefix planner's duration estimator from the latency
curves of Switch #1 inferred at probe seed 7.  The planner's decisions
swing with the last bits of those curves, so a change to the latency
probe must leave the ascending- and descending-priority ADD samples
exactly as pinned here (``tests/test_prefix_bench_schedules.py`` pins
the schedules built on them).
"""

import pytest

from repro.core.inference import SwitchInferenceEngine
from repro.core.latency_curves import PriorityPattern
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import SWITCH_1

#: Probe seed of the Switch #1 model built in the install benches' setup.
MODEL_SEED = 7

#: pattern -> ((batch size, elapsed ms), ...) at MODEL_SEED.
GOLDEN_ADD_SAMPLES = {
    PriorityPattern.ASCENDING: (
        (100, 73.82897844051159),
        (400, 295.96977156004573),
        (900, 666.2301043081089),
        (1600, 1183.3131240065313),
    ),
    PriorityPattern.DESCENDING: (
        (100, 144.9576637357162),
        (400, 1447.0122778482828),
        (900, 6496.45122168112),
        (1600, 19600.86225864621),
    ),
}


@pytest.fixture(scope="module")
def switch1_curves():
    return SwitchInferenceEngine(SWITCH_1, seed=MODEL_SEED).infer_latency_curves()


@pytest.mark.parametrize("pattern", sorted(GOLDEN_ADD_SAMPLES, key=lambda p: p.value))
def test_switch1_add_samples_are_pinned(switch1_curves, pattern):
    curve = switch1_curves[(FlowModCommand.ADD, pattern)]
    assert curve.samples == GOLDEN_ADD_SAMPLES[pattern]
