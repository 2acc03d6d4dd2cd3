"""End-to-end integration tests reproducing the paper's headline results
at reduced scale (full scale runs live in benchmarks/)."""

from repro.baselines import DionysusScheduler, RandomOrderScheduler
from repro.core.api import Tango
from repro.core.inference import SwitchInferenceEngine
from repro.core.patterns import make_type_only_pattern
from repro.core.priorities import (
    assign_r_priorities,
    assign_topological_priorities,
    enforce_topological_priorities,
)
from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler
from repro.netem.network import EmulatedNetwork
from repro.netem.scenarios import LinkFailureScenario, TrafficEngineeringScenario
from repro.netem.topology import triangle_topology
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import SWITCH_1, SWITCH_3, make_cache_test_profile
from repro.tables.policies import LRU
from repro.workloads.classbench import ClassbenchLikeGenerator


def test_full_inference_pipeline_on_multilevel_switch():
    """Size, policy, and latency curves inferred in one pass."""
    profile = make_cache_test_profile(LRU, (48, 96, None), layer_means_ms=(0.5, 2.5, 4.8))
    engine = SwitchInferenceEngine(
        profile, seed=3, size_probe_max_rules=512, latency_batch_sizes=(40, 80)
    )
    model = engine.infer()
    assert abs(model.layer_sizes[0] - 48) <= 3
    assert abs(model.layer_sizes[1] - 96) <= 6
    assert model.layer_sizes[2] is None
    assert model.policy_probe.terms[0][0].value == "usage_time"
    assert model.latency_curves
    estimator = model.duration_estimator()
    dag = RequestDag()
    request = dag.new_request("x", FlowModCommand.ADD, _unique_match(1))
    assert estimator(request) > 0


def _unique_match(i):
    from repro.openflow.match import IpPrefix, Match

    return Match(eth_type=0x0800, ip_dst=IpPrefix(0x0D000000 + i, 32))


def _single_switch_dag(ruleset, priorities):
    dag = RequestDag()
    requests = {}
    for index, rule in enumerate(ruleset.rules):
        requests[index] = dag.new_request(
            "sw", FlowModCommand.ADD, rule, priority=priorities[index]
        )
    for u, v in ruleset.dependencies.edges():
        dag.add_dependency(requests[u], requests[v])
    return dag


def test_topo_priorities_with_tango_beat_r_priorities_random():
    """Figure 9 shape: Topo+optimal wins over R+random on hardware."""
    ruleset = ClassbenchLikeGenerator(n_rules=150, depth=20, seed=7).generate()
    topo = assign_topological_priorities(ruleset.dependencies)
    r = assign_r_priorities(ruleset.dependencies)

    def run(priorities, scheduler_factory):
        switch = SWITCH_1.build(seed=11)
        switch.name = "sw"
        from repro.core.scheduler import NetworkExecutor
        from repro.openflow.channel import ControlChannel

        executor = NetworkExecutor({"sw": ControlChannel(switch)})
        dag = _single_switch_dag(ruleset, priorities)
        return scheduler_factory(executor).schedule(dag).makespan_ms

    topo_tango = run(topo, lambda ex: BasicTangoScheduler(ex))
    r_random = run(r, lambda ex: RandomOrderScheduler(ex, seed=1))
    assert topo_tango < r_random


def test_link_failure_tango_priority_beats_dionysus():
    """Figure 10 LF shape: Type+Priority wins big; Type-only ties."""

    def build_network():
        network = EmulatedNetwork(
            triangle_topology(),
            default_profile=SWITCH_1,
            profiles={"s3": SWITCH_3},
            seed=3,
        )
        from repro.sim.rng import SeededRng

        rng = SeededRng(5).child("flows")
        for _ in range(300):
            network.new_flow("s1", "s2", priority=rng.randint(1, 2000))
        network.preinstall_flow_rules()
        return network

    def run(factory):
        network = build_network()
        result = LinkFailureScenario(network, ("s1", "s2")).build_dag()
        return factory(network.executor()).schedule(result.dag).makespan_ms

    dionysus = run(lambda ex: DionysusScheduler(ex))
    type_only = run(
        lambda ex: BasicTangoScheduler(ex, patterns=[make_type_only_pattern()])
    )
    type_priority = run(lambda ex: BasicTangoScheduler(ex))
    assert type_priority < 0.6 * dionysus  # paper: ~70% reduction
    assert abs(type_only - dionysus) < 0.35 * dionysus  # paper: ~0%


def test_priority_enforcement_beats_priority_sorting():
    """Figure 11 shape: enforcement > sorting > Dionysus for add-heavy DAGs."""

    def build():
        network = EmulatedNetwork(
            triangle_topology(), default_profile=SWITCH_1, seed=4
        )
        scenario = TrafficEngineeringScenario(network, seed=6)
        result = scenario.random_mix(300, mix=(1.0, 0.0, 0.0), dag_levels=1)
        return network, result

    network, result = build()
    dionysus = DionysusScheduler(network.executor()).schedule(result.dag).makespan_ms

    network, result = build()
    sorting = BasicTangoScheduler(network.executor()).schedule(result.dag).makespan_ms

    network, result = build()
    enforced_dag = enforce_topological_priorities(result.dag)
    enforcement = (
        BasicTangoScheduler(network.executor()).schedule(enforced_dag).makespan_ms
    )

    assert sorting < dionysus
    assert enforcement < sorting


def test_tango_facade_network_roundtrip():
    """Register switches, schedule a two-switch dependent DAG."""
    tango = Tango(seed=9)
    tango.register_profile(SWITCH_1, name="hw1")
    tango.register_profile(SWITCH_3, name="hw3")
    dag = RequestDag()
    parent = dag.new_request("hw3", FlowModCommand.ADD, _unique_match(1), priority=5)
    dag.new_request("hw1", FlowModCommand.MODIFY, _unique_match(1), priority=5, after=[parent])
    result = tango.schedule(dag)
    assert result.total_requests == 2
    assert result.deadline_misses == 0
