"""Rule dependency analysis.

Two ACL rules *depend* on each other when their matches overlap: some
packet would hit both, so the rule earlier in the ACL must win, which in
OpenFlow means it needs a strictly higher priority (and, to avoid
transient misclassification, should be installed first).
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.openflow.match import Match, overlapping_pairs


def build_dependency_graph(rules: Sequence[Match]) -> nx.DiGraph:
    """Dependency DAG of an ACL-ordered rule list.

    Nodes are rule indices.  An edge ``i -> j`` (for ``i < j``) means rule
    ``i`` precedes rule ``j`` in the ACL and their matches overlap, so
    rule ``i`` must receive the higher priority.

    The graph is acyclic by construction (edges always point from lower
    to higher index).  Edges come from :func:`overlapping_pairs`, so only
    rules sharing a bucket value (or wildcarding it) are compared.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(rules)))
    graph.add_edges_from(overlapping_pairs(rules))
    return graph


def dag_depth(graph: nx.DiGraph) -> int:
    """Length (in nodes) of the longest dependency chain."""
    if graph.number_of_nodes() == 0:
        return 0
    return nx.dag_longest_path_length(graph) + 1
