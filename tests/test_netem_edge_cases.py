"""Edge-case tests for netem scenarios and model export."""

import io
import json

from repro.core.inference import SwitchInferenceEngine
from repro.netem.network import EmulatedNetwork
from repro.netem.scenarios import LinkFailureScenario, TrafficEngineeringScenario
from repro.netem.topology import Topology, b4_topology, triangle_topology
from repro.switches.profiles import OVS_PROFILE, make_cache_test_profile
from repro.tables.policies import LRU
from repro.tools.cli import main as cli_main


def _network():
    return EmulatedNetwork(triangle_topology(), default_profile=OVS_PROFILE, seed=1)


# -- scenario edge cases -------------------------------------------------------
def test_link_failure_with_no_affected_flows():
    network = _network()
    network.new_flow("s1", "s3")  # does not cross s1-s2
    result = LinkFailureScenario(network, ("s1", "s2")).build_dag()
    assert result.total == 0
    assert len(result.dag) == 0


def test_link_failure_only_counts_crossing_flows():
    network = _network()
    crossing = network.new_flow("s1", "s2")
    network.new_flow("s2", "s3")
    scenario = LinkFailureScenario(network, ("s2", "s1"))  # unordered pair
    affected = scenario.affected_flows()
    assert [f.flow_id for f in affected] == [crossing.flow_id]


def test_random_mix_single_request():
    scenario = TrafficEngineeringScenario(_network(), seed=1)
    result = scenario.random_mix(1, mix=(1.0, 0.0, 0.0))
    assert result.total == 1
    assert result.adds == 1


def test_random_mix_levels_deeper_than_requests():
    scenario = TrafficEngineeringScenario(_network(), seed=1)
    result = scenario.random_mix(2, mix=(1.0, 0.0, 0.0), dag_levels=2)
    assert result.total == 2
    assert result.dag.depth() == 2


def test_te_matrices_without_preinstall():
    network = EmulatedNetwork(b4_topology(), default_profile=OVS_PROFILE, seed=2)
    scenario = TrafficEngineeringScenario(network, seed=3)
    pair_a = ("b4-01", "b4-04")
    pair_b = ("b4-02", "b4-05")
    result = scenario.from_traffic_matrices(
        {pair_a: 5.0}, {pair_b: 5.0}, preinstall=False
    )
    assert result.adds > 0
    assert result.dels > 0
    # Nothing installed on the switches yet.
    assert all(s.num_flows == 0 for s in network.switches.values())


def test_te_matrices_identical_matrices_produce_no_requests():
    network = EmulatedNetwork(b4_topology(), default_profile=OVS_PROFILE, seed=2)
    scenario = TrafficEngineeringScenario(network, seed=3)
    matrix = {("b4-01", "b4-04"): 5.0}
    result = scenario.from_traffic_matrices(matrix, dict(matrix))
    assert result.total == 0


def test_empty_topology_network():
    topology = Topology("empty")
    topology.add_switch("lonely")
    network = EmulatedNetwork(topology, default_profile=OVS_PROFILE)
    assert network.port_along_path(["lonely"], "lonely") == network.LOCAL_PORT
    assert network.neighbor_on_port("lonely", 2) is None


# -- model export -----------------------------------------------------------------
def test_inferred_model_to_dict_roundtrips_through_json():
    # Cache 64 >= the behaviour probe's 40 flows, so the LRU switch shows
    # no first-packet penalty (an under-provisioned LRU cache is
    # *genuinely* traffic-driven and would be classified as such).
    profile = make_cache_test_profile(LRU, (64, None), layer_means_ms=(0.5, 3.0))
    engine = SwitchInferenceEngine(
        profile, seed=4, size_probe_max_rules=256, latency_batch_sizes=(30, 60)
    )
    model = engine.infer(include_policy=True)
    payload = json.loads(json.dumps(model.to_dict()))
    assert payload["name"] == profile.name
    assert payload["layers"][0]["size"] == model.layer_sizes[0]
    assert payload["layers"][-1]["size"] is None
    assert payload["policy"][0]["attribute"] == "usage_time"
    assert payload["behavior"]["traffic_driven_caching"] is False
    assert "add/ascending" in payload["latency_curves"]


def test_underprovisioned_lru_is_classified_traffic_driven():
    """When probing exceeds the cache, LRU placement *is* traffic-driven."""
    from repro.core.behavior_inference import BehaviorProber
    from repro.core.probing import ProbingEngine
    from repro.openflow.channel import ControlChannel
    from repro.sim.rng import SeededRng

    profile = make_cache_test_profile(LRU, (16, None), layer_means_ms=(0.5, 3.0))
    engine = ProbingEngine(
        ControlChannel(profile.build(seed=4)), rng=SeededRng(4).child("b")
    )
    result = BehaviorProber(engine, flows=40).probe()
    assert result.traffic_driven_caching


def test_cli_json_output_is_valid_json():
    out = io.StringIO()
    assert (
        cli_main(
            ["probe", "--profile", "switch3", "--max-rules", "1024", "--json"],
            out=out,
        )
        == 0
    )
    payload = json.loads(out.getvalue())
    assert payload["name"] == "switch3"
    assert payload["layers"][0]["size"] == 767
