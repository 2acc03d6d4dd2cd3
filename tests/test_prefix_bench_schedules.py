"""Golden schedules of the prefix scheduler on the Table 2 DAGs.

``PrefixTangoScheduler`` installs ClassBench 1/2/3 under topological and
R priorities on a Switch #1, planning with the rewrite patterns and the
duration estimator of the Switch #1 model inferred at probe seed 7 --
the inputs of the ``install_prefix`` bench.  The estimator is not a
binary fraction, so every plan decision depends on the planner's exact
float summation order; a planner optimization must leave makespan,
rounds and issue order of all six schedules unchanged.
"""

import hashlib

import pytest

from repro.core.inference import InferredSwitchModel, SwitchInferenceEngine
from repro.core.priorities import assign_r_priorities, assign_topological_priorities
from repro.core.requests import RequestDag
from repro.core.scheduler import NetworkExecutor, PrefixTangoScheduler
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import SWITCH_1
from repro.workloads.classbench import classbench_preset

PRIORITIES = {
    "topological": assign_topological_priorities,
    "r": assign_r_priorities,
}

#: (preset, priorities) -> (makespan ms, rounds, sha256[:16] of issue order).
GOLDEN = {
    (1, "topological"): (1399.8993583713122, 175, "d0c936aa42d697c8"),
    (1, "r"): (3547.2658019308997, 131, "34f38347b9a7c8d7"),
    (2, "topological"): (2075.0518543166827, 144, "56c353964eaaaf85"),
    (2, "r"): (4885.735429553094, 143, "ed30bc500ae93be4"),
    (3, "topological"): (1894.8279111818638, 145, "fa424713c51e78fe"),
    (3, "r"): (4044.253281777755, 144, "035d10eb10e24f56"),
}


@pytest.fixture(scope="module")
def switch1_model():
    engine = SwitchInferenceEngine(SWITCH_1, seed=7)
    return InferredSwitchModel(
        name=SWITCH_1.name, latency_curves=engine.infer_latency_curves()
    )


@pytest.mark.parametrize("preset,kind", sorted(GOLDEN))
def test_classbench_prefix_schedule_is_pinned(switch1_model, preset, kind):
    ruleset = classbench_preset(preset)
    priorities = PRIORITIES[kind](ruleset.dependencies)
    switch = SWITCH_1.build(seed=1)
    dag = RequestDag()
    requests = [
        dag.new_request(switch.name, FlowModCommand.ADD, rule, priority=priorities[i])
        for i, rule in enumerate(ruleset.rules)
    ]
    for first, then in ruleset.dependencies.edges():
        dag.add_dependency(requests[first], requests[then], check_cycle=False)
    dag.validate_acyclic()
    result = PrefixTangoScheduler(
        NetworkExecutor({switch.name: ControlChannel(switch)}),
        switch1_model.duration_estimator(),
        patterns=switch1_model.rewrite_patterns(),
    ).schedule(dag)
    issue_order = ",".join(str(r.request.request_id) for r in result.records)
    digest = hashlib.sha256(issue_order.encode()).hexdigest()[:16]
    assert (result.makespan_ms, result.rounds, digest) == GOLDEN[(preset, kind)]
    assert len(result.records) == len(ruleset.rules)
