"""Tests for the ClassBench-like workload generator (Table 2)."""

import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.priorities import (
    assign_r_priorities,
    assign_topological_priorities,
    check_priorities,
    distinct_priority_count,
)
from repro.workloads.classbench import (
    CLASSBENCH_PRESETS,
    ClassbenchLikeGenerator,
    classbench_preset,
)
from repro.workloads.dependencies import build_dependency_graph, dag_depth
from repro.openflow.match import IpPrefix, Match


# -- dependency analysis ----------------------------------------------------------
def test_dependency_graph_edges_point_forward():
    rules = [
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8)),
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A010000, 16)),
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0B000000, 8)),
    ]
    graph = build_dependency_graph(rules)
    assert set(graph.edges()) == {(0, 1)}
    assert nx.is_directed_acyclic_graph(graph)


def test_dag_depth_of_chain():
    rules = [
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, length))
        for length in (8, 16, 24)
    ]
    graph = build_dependency_graph(rules)
    assert dag_depth(graph) == 3


def test_dag_depth_empty():
    assert dag_depth(build_dependency_graph([])) == 0


# -- generator ------------------------------------------------------------------------
def test_generator_validation():
    with pytest.raises(ValueError):
        ClassbenchLikeGenerator(n_rules=10, depth=20)
    with pytest.raises(ValueError):
        ClassbenchLikeGenerator(n_rules=100, depth=0)
    with pytest.raises(ValueError):
        ClassbenchLikeGenerator(n_rules=100, depth=67)


def test_generator_hits_requested_shape():
    ruleset = ClassbenchLikeGenerator(n_rules=200, depth=25, seed=3).generate()
    assert len(ruleset) == 200
    assert ruleset.depth == 25


def test_generator_deterministic_per_seed():
    a = ClassbenchLikeGenerator(n_rules=100, depth=10, seed=5).generate()
    b = ClassbenchLikeGenerator(n_rules=100, depth=10, seed=5).generate()
    assert [r.key() for r in a.rules] == [r.key() for r in b.rules]
    c = ClassbenchLikeGenerator(n_rules=100, depth=10, seed=6).generate()
    assert [r.key() for r in a.rules] != [r.key() for r in c.rules]


def test_rules_are_unique():
    ruleset = ClassbenchLikeGenerator(n_rules=300, depth=20, seed=1).generate()
    keys = [r.key() for r in ruleset.rules]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_presets_match_table2(index):
    """Table 2: (829, 64), (989, 38), (972, 33); R priorities = rule count."""
    expected_rules, expected_depth = CLASSBENCH_PRESETS[index]
    ruleset = classbench_preset(index)
    assert len(ruleset) == expected_rules
    assert ruleset.depth == expected_depth
    topo = assign_topological_priorities(ruleset.dependencies)
    r = assign_r_priorities(ruleset.dependencies)
    assert distinct_priority_count(topo) == expected_depth
    assert distinct_priority_count(r) == expected_rules
    assert check_priorities(ruleset.dependencies, topo) == []
    assert check_priorities(ruleset.dependencies, r) == []


#: sha256 of ``repr(list(classbench_preset(i).dependencies.edges()))``,
#: taken from the all-pairs overlap scan: the overlap index must reproduce
#: every edge in the same insertion order.
PRESET_EDGE_DIGESTS = {
    1: (3294, "2e640f11c6bce3358bf6eff794f905b7df0cf262ddfca782a35c265a1d0eb5cc"),
    2: (2325, "c2c8edab29364ee124a79f57055d16420404f1cceda6c06396e1447314f3e29b"),
    3: (1990, "adfd3e8f39fc2288341efdcdc0d06e255373c3a9b21feb6171495b23067db50b"),
}


@pytest.mark.parametrize("index", [1, 2, 3])
def test_preset_dependency_edges_golden(index):
    edges = list(classbench_preset(index).dependencies.edges())
    count, digest = PRESET_EDGE_DIGESTS[index]
    assert len(edges) == count
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


def test_preset_index_validated():
    with pytest.raises(ValueError):
        classbench_preset(4)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=20, max_value=120),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=1000),
)
def test_generator_shape_properties(n_rules, depth, seed):
    """Property: requested size exact, depth exact, DAG acyclic."""
    if n_rules < depth:
        n_rules = depth
    ruleset = ClassbenchLikeGenerator(n_rules=n_rules, depth=depth, seed=seed).generate()
    assert len(ruleset) == n_rules
    assert ruleset.depth == depth
    assert nx.is_directed_acyclic_graph(ruleset.dependencies)
