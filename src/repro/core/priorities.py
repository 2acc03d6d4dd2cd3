"""Priority assignment from rule-dependency DAGs.

ACL-style rule sets contain overlapping rules where one rule must be
matched in preference to another; installing them into a flow table
requires OpenFlow priorities consistent with those constraints.  The
paper (Section 7.1, following Maple [23]) derives two assignments from
the dependency graph:

* **Topological priorities** -- the minimum number of distinct priority
  values: rules at the same dependency depth share one priority (Table 2
  reports 64/38/33 distinct values for ~900-rule sets).
* **R priorities** -- a 1-to-1 assignment: every rule gets a unique
  priority that still satisfies all constraints.

Both are consumed by the scheduler experiments: fewer distinct
priorities means more same-priority adds, which hardware switches
install dramatically faster.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Tuple

import networkx as nx

from repro.core.requests import RequestDag


def _validate(dependencies: nx.DiGraph) -> None:
    if not nx.is_directed_acyclic_graph(dependencies):
        raise ValueError("rule dependency graph must be acyclic")


def assign_topological_priorities(
    dependencies: nx.DiGraph, step: int = 1, base: int = 1
) -> Dict[Hashable, int]:
    """Minimal distinct priorities: same dependency depth, same priority.

    An edge ``u -> v`` means rule ``u`` must take precedence over (have a
    strictly higher priority than) rule ``v``.  Each rule's priority is
    ``base + step * height``, where height is the longest path from the
    rule to any sink -- so all constraint edges strictly decrease.

    Args:
        dependencies: rule dependency DAG.
        step: spacing between adjacent priority levels.
        base: priority assigned to sink rules.
    """
    _validate(dependencies)
    heights: Dict[Hashable, int] = {}
    for node in reversed(list(nx.topological_sort(dependencies))):
        succ = list(dependencies.successors(node))
        heights[node] = 1 + max((heights[s] for s in succ), default=-1)
    return {node: base + step * height for node, height in heights.items()}


def assign_r_priorities(dependencies: nx.DiGraph, base: int = 1) -> Dict[Hashable, int]:
    """A 1-to-1 priority assignment satisfying all constraints.

    Rules are numbered in reverse topological order (sinks first), so
    every rule's priority exceeds all of its successors' priorities and
    every rule gets a unique value.
    """
    _validate(dependencies)
    priorities: Dict[Hashable, int] = {}
    counter = base
    for node in reversed(list(nx.topological_sort(dependencies))):
        priorities[node] = counter
        counter += 1
    return priorities


def distinct_priority_count(priorities: Dict[Hashable, int]) -> int:
    """Number of distinct priority values in an assignment."""
    return len(set(priorities.values()))


def enforce_topological_priorities(dag: RequestDag, base: int = 100_000) -> RequestDag:
    """Tango's *priority enforcement* (paper Figure 11).

    When applications specify only dependency constraints (no explicit
    priorities), Tango is free to choose the priorities itself.  It
    assigns the minimum number of distinct values -- one per dependency
    level -- so that as many additions as possible share a priority,
    which hardware switches install dramatically faster.

    Returns a new DAG with identical structure and rewritten priorities
    (dependent requests get strictly lower priorities than the requests
    they wait on).
    """
    # One level per dependency depth: sinks get ``base``.
    heights = dag.critical_path_lengths()
    rewritten = RequestDag()
    by_id = {}
    for request in dag.requests:
        mod = dataclasses.replace(
            request.mod, priority=base + heights[request.request_id] - 1
        )
        updated = request._replace(mod=mod)
        rewritten.add_request(updated)
        by_id[request.request_id] = updated
    for first_id, then_id in dag.edge_ids():
        # The source DAG is already acyclic; skip the per-edge check.
        rewritten.add_dependency(by_id[first_id], by_id[then_id], check_cycle=False)
    return rewritten


def check_priorities(
    dependencies: nx.DiGraph, priorities: Dict[Hashable, int]
) -> List[Tuple[Hashable, Hashable]]:
    """Return the constraint edges violated by ``priorities`` (empty = valid)."""
    violations = []
    for u, v in dependencies.edges():
        if priorities[u] <= priorities[v]:
            violations.append((u, v))
    return violations
