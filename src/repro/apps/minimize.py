"""ACL minimisation: shadowed-rule elimination.

TCAM space is the scarce resource Tango's size inference measures; the
cheapest rule to install is the one you never send.  A rule that is
fully covered by an earlier (first-match-wins) rule can never fire --
regardless of either rule's action -- so it can be dropped from the ACL
before priorities are assigned.  Removing it also prunes the dependency
DAG, which can reduce both the number of distinct topological priorities
and the installation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.openflow.match import Match, OverlapIndex


@dataclass
class MinimizationResult:
    """Outcome of shadowed-rule elimination."""

    rules: List[Match]
    kept_indices: List[int]
    removed_indices: List[int] = field(default_factory=list)
    #: removed index -> the earlier rule index that covers it
    shadowed_by: dict = field(default_factory=dict)

    @property
    def removed_count(self) -> int:
        return len(self.removed_indices)


def minimize_acl(rules: Sequence[Match]) -> MinimizationResult:
    """Remove rules fully covered by an earlier rule.

    First-match semantics: if some earlier rule covers every packet of
    rule ``i``, then no packet ever reaches rule ``i``, so it is
    unreachable and removable whatever the actions are.  (Coverage by a
    *union* of earlier rules is not detected -- single-rule shadowing is
    the sound, cheap case.)

    Returns:
        The surviving rules (in original order) plus bookkeeping about
        what was removed and why.
    """
    # A covering rule overlaps what it covers, so the kept rules that are
    # overlap candidates of a rule are the only ones to test.
    kept_index = OverlapIndex(rules)
    kept: List[int] = []
    removed: List[int] = []
    shadowed_by = {}
    for index, rule in enumerate(rules):
        shadow: Optional[int] = None
        for earlier in kept_index.candidates(index):
            if rules[earlier].covers(rule):
                shadow = earlier
                break
        if shadow is None:
            kept_index.add(index)
            kept.append(index)
        else:
            removed.append(index)
            shadowed_by[index] = shadow
    return MinimizationResult(
        rules=[rules[i] for i in kept],
        kept_indices=kept,
        removed_indices=removed,
        shadowed_by=shadowed_by,
    )
