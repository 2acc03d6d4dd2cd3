"""Tango patterns and the pattern database.

A *Tango pattern* is "a sequence of standard OpenFlow flow modification
commands and a corresponding data traffic pattern" (Section 4).  Two
flavours exist in the system:

* :class:`ProbePattern` -- generates a concrete (flow_mods, probe traffic)
  sequence for the probing engine to apply to a switch.  The size and
  policy inference engines synthesise these on the fly.
* :class:`RewritePattern` -- an *ordering recipe with a score function*
  used by the Tango scheduler (Section 6): given the multiset of pending
  independent requests, the score predicts the (negated) cost of issuing
  them in the pattern's order, e.g. ``DEL MOD ASCEND_ADD`` scores
  ``-(10*|DEL| + 1*|MOD| + 20*|ADD|^2)``.

The pattern database is extensible: components register new patterns at
runtime, exactly as the paper prescribes for its architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.openflow.match import PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand


@dataclass(frozen=True)
class ProbePattern:
    """A concrete probing recipe.

    Args:
        name: pattern identifier in the database.
        flow_mods: ordered control-plane commands to apply.
        traffic: probe packets to send after the flow mods (the data
            traffic part of the pattern).
        description: human-readable summary.
    """

    name: str
    flow_mods: Tuple[FlowMod, ...] = ()
    traffic: Tuple[PacketFields, ...] = ()
    description: str = ""


# A rewrite pattern's score function maps per-command counts to a score
# (higher is better / cheaper). Counts arrive as {ADD: n_add, ...}.
ScoreFunction = Callable[[Dict[FlowModCommand, int]], float]

# An order key decides the issue order of requests within the pattern.
# It maps (command, priority) to a sortable key.
OrderKey = Callable[[FlowModCommand, int], Tuple]


@dataclass(frozen=True)
class RewritePattern:
    """A scheduler ordering recipe with a cost score.

    The paper's example patterns order deletions first, then
    modifications, then additions sorted by priority; they differ in the
    priority direction and are scored by switch-specific weights.
    """

    name: str
    score: ScoreFunction
    order_key: OrderKey
    description: str = ""

    def score_counts(self, counts: Dict[FlowModCommand, int]) -> float:
        return self.score(counts)


#: DEL before MOD before ADD, as in the paper's pattern examples.
_COMMAND_RANK = {
    FlowModCommand.DELETE: 0,
    FlowModCommand.MODIFY: 1,
    FlowModCommand.ADD: 2,
}


def make_del_mod_add_pattern(
    name: str,
    add_weight: float,
    del_weight: float = 10.0,
    mod_weight: float = 1.0,
    ascending_adds: bool = True,
) -> RewritePattern:
    """Build a ``DEL MOD {ASCEND|DESCEND}_ADD`` rewrite pattern.

    The score follows the paper's form
    ``-(del_w*|DEL| + mod_w*|MOD| + add_w*|ADD|^2)``: the quadratic ADD
    term reflects TCAM entry shifting, and the per-pattern ``add_weight``
    encodes how badly the chosen priority direction shifts entries.
    """

    def score(counts: Dict[FlowModCommand, int]) -> float:
        adds = counts.get(FlowModCommand.ADD, 0)
        dels = counts.get(FlowModCommand.DELETE, 0)
        mods = counts.get(FlowModCommand.MODIFY, 0)
        return -(del_weight * dels + mod_weight * mods + add_weight * adds * adds)

    direction = 1 if ascending_adds else -1

    def order_key(command: FlowModCommand, priority: int) -> Tuple:
        return (_COMMAND_RANK[command], direction * priority)

    return RewritePattern(
        name=name,
        score=score,
        order_key=order_key,
        description=(
            f"deletions, then modifications, then additions in "
            f"{'ascending' if ascending_adds else 'descending'} priority order"
        ),
    )


def make_type_only_pattern(
    name: str = "DEL MOD ADD (type only)",
    add_weight: float = 20.0,
    del_weight: float = 10.0,
    mod_weight: float = 1.0,
) -> RewritePattern:
    """Rule-type grouping without priority sorting.

    This is the paper's "Tango (Type)" arm in Figure 10: deletions, then
    modifications, then additions in arrival order -- no exploitation of
    the ascending-priority insert discount.
    """

    def score(counts: Dict[FlowModCommand, int]) -> float:
        adds = counts.get(FlowModCommand.ADD, 0)
        dels = counts.get(FlowModCommand.DELETE, 0)
        mods = counts.get(FlowModCommand.MODIFY, 0)
        return -(del_weight * dels + mod_weight * mods + add_weight * adds * adds)

    def order_key(command: FlowModCommand, priority: int) -> Tuple:
        return (_COMMAND_RANK[command],)

    return RewritePattern(
        name=name,
        score=score,
        order_key=order_key,
        description="deletions, then modifications, then additions in arrival order",
    )


def default_rewrite_patterns() -> List[RewritePattern]:
    """The paper's two example patterns (Algorithm 3, lines 20-26)."""
    return [
        make_del_mod_add_pattern("DEL MOD ASCEND_ADD", add_weight=20.0, ascending_adds=True),
        make_del_mod_add_pattern("DEL MOD DESCEND_ADD", add_weight=40.0, ascending_adds=False),
    ]


class TangoPatternDatabase:
    """The central, extensible pattern store (TangoDB's pattern half)."""

    def __init__(self) -> None:
        self._probe_patterns: Dict[str, ProbePattern] = {}
        self._rewrite_patterns: Dict[str, RewritePattern] = {}
        for pattern in default_rewrite_patterns():
            self.register_rewrite(pattern)

    # -- probe patterns -------------------------------------------------------
    def register_probe(self, pattern: ProbePattern) -> None:
        self._probe_patterns[pattern.name] = pattern

    def get_probe(self, name: str) -> ProbePattern:
        return self._probe_patterns[name]

    @property
    def probe_patterns(self) -> List[ProbePattern]:
        return list(self._probe_patterns.values())

    # -- rewrite patterns -------------------------------------------------------
    def register_rewrite(self, pattern: RewritePattern) -> None:
        self._rewrite_patterns[pattern.name] = pattern

    def get_rewrite(self, name: str) -> RewritePattern:
        return self._rewrite_patterns[name]

    @property
    def rewrite_patterns(self) -> List[RewritePattern]:
        return list(self._rewrite_patterns.values())
