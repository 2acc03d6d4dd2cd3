"""Differential tests: ``RequestDag``'s graph code vs networkx.

``RequestDag`` keeps its dependency graph in plain adjacency dicts and
answers acyclicity, topological-order and critical-path queries itself.
networkx is the oracle here only: every query must match an
``nx.DiGraph`` built alongside, edge for edge, on random graphs that
include edges which would close a cycle.  Schedule signatures depend on
``topological_order`` and ``edge_ids`` order, so those are compared as
lists, not sets.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import RequestDag
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


@st.composite
def graph_specs(draw):
    """Node count plus arbitrary (possibly cycle-closing) edge attempts."""
    n = draw(st.integers(min_value=1, max_value=16))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


def _build(n, attempts):
    """Apply ``attempts`` with the cycle check to a DAG and, as the
    oracle, to an ``nx.DiGraph``; returns both and the rejected pairs."""
    dag, graph = RequestDag(), nx.DiGraph()
    requests = [dag.new_request("s1", FlowModCommand.ADD, _match(i)) for i in range(n)]
    graph.add_nodes_from(range(n))
    rejected = []
    for a, b in attempts:
        closes_cycle = a == b or nx.has_path(graph, b, a)
        try:
            dag.add_dependency(requests[a], requests[b])
        except ValueError:
            assert closes_cycle, (a, b)
            rejected.append((a, b))
            continue
        assert not closes_cycle, (a, b)
        graph.add_edge(a, b)
    return dag, graph, requests, rejected


def _oracle_critical_paths(graph):
    lengths = {}
    for node in reversed(list(nx.topological_sort(graph))):
        lengths[node] = 1 + max((lengths[s] for s in graph.successors(node)), default=0)
    return lengths


@settings(max_examples=300, deadline=None)
@given(graph_specs())
def test_checked_dag_matches_networkx(spec):
    n, attempts = spec
    dag, graph, _, _ = _build(n, attempts)
    assert dag.edge_ids() == list(graph.edges())
    assert dag.topological_order() == list(nx.topological_sort(graph))
    assert dag.critical_path_lengths() == _oracle_critical_paths(graph)
    assert dag.is_acyclic()
    assert dag.find_cycle_ids() == []
    for rid in range(n):
        assert dag.predecessor_ids(rid) == list(graph.predecessors(rid))
        assert dag.successor_ids(rid) == list(graph.successors(rid))


@settings(max_examples=300, deadline=None)
@given(graph_specs())
def test_forced_cycle_is_found_and_rejected(spec):
    n, attempts = spec
    dag, graph, requests, rejected = _build(n, attempts)
    if rejected:
        a, b = rejected[0]
    elif graph.number_of_edges():
        b, a = next(iter(graph.edges()))
    else:
        a = b = 0
    dag.add_dependency(requests[a], requests[b], check_cycle=False)
    graph.add_edge(a, b)
    assert dag.edge_ids() == list(graph.edges())
    assert not dag.is_acyclic()
    cycle = dag.find_cycle_ids()
    assert cycle and len(set(cycle)) == len(cycle)
    for first, then in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(first, then), (cycle, first, then)
    with pytest.raises(ValueError):
        dag.topological_order()
    with pytest.raises(ValueError):
        dag.validate_acyclic()
