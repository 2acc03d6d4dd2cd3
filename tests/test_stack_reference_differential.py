"""Differential test: RankedTableStack against a naive reference.

The stack files each entry's rank key once, skips touches that leave
the key unchanged, does not rescore a touch under a policy that reads
neither use time nor traffic count, caches layer lookups until the
ranking changes and memoises its admission arithmetic.  The reference
below does none of that: it rescores every entry with the ATTRIB formula
(``direction.value * attribute_value``) and re-sorts on every query.
Random insert / remove / touch / update_priority / clear sequences over
L2, L3 and L2+L3 matches must give identical rankings, worst-entry
lists, layers, occupancy and accept/reject decisions under every
standard policy.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.openflow.actions import OutputAction
from repro.openflow.errors import TableFullError
from repro.openflow.match import IpPrefix, Match, MatchKind
from repro.tables.entry import FlowEntry
from repro.tables.policies import STANDARD_POLICIES, CachePolicy
from repro.tables.stack import RankedTableStack, TableLayer
from repro.tables.tcam import TcamGeometry, TcamMode

ACTIONS = (OutputAction(1),)

LAYER_SETS = {
    "plain_bounded": [TableLayer("fast", capacity=3), TableLayer("slow", capacity=4)],
    "adaptive_unbounded": [
        TableLayer("tcam", geometry=TcamGeometry(5, TcamMode.ADAPTIVE, wide_cost=2.0)),
        TableLayer("sw", capacity=None),
    ],
    "adaptive_wide_tiers": [
        TableLayer("tcam", geometry=TcamGeometry(5, TcamMode.ADAPTIVE, wide_cost=3.0)),
        TableLayer("kernel", capacity=4),
        TableLayer("sw", capacity=None),
    ],
    "adaptive_only": [
        TableLayer("tcam", geometry=TcamGeometry(7, TcamMode.ADAPTIVE, wide_cost=2.5)),
    ],
    "double_wide_only": [
        TableLayer("tcam", geometry=TcamGeometry(9, TcamMode.DOUBLE_WIDE)),
    ],
    "single_wide": [
        TableLayer("tcam", geometry=TcamGeometry(4, TcamMode.SINGLE_WIDE)),
        TableLayer("slow", capacity=3),
    ],
}


def _match(index: int, kind: MatchKind) -> Match:
    if kind is MatchKind.L2:
        return Match(eth_dst=index + 1)
    if kind is MatchKind.L3:
        return Match(eth_type=0x0800, ip_dst=IpPrefix(index, 32))
    return Match(eth_dst=index + 1, eth_type=0x0800, ip_dst=IpPrefix(index, 32))


def _reference_score(policy: CachePolicy, entry: FlowEntry) -> tuple:
    parts = [
        direction.value * entry.attribute_value(attribute)
        for attribute, direction in policy.terms
    ]
    parts.append(float(entry.entry_id))
    return tuple(parts)


class ReferenceStack:
    """The stack's semantics, recomputed from scratch on every query."""

    def __init__(self, layers: List[TableLayer], policy: CachePolicy) -> None:
        self.layers = layers
        self.policy = policy
        self.entries: Dict[int, FlowEntry] = {}
        self.next_id = 0

    def entries_by_rank(self) -> List[FlowEntry]:
        """Best-ranked first."""
        return sorted(
            self.entries.values(),
            key=lambda e: (_reference_score(self.policy, e), e.entry_id),
            reverse=True,
        )

    def worst_entries(self, count: int) -> List[FlowEntry]:
        return self.entries_by_rank()[::-1][:count]

    def _walk(self, ordered: List[FlowEntry]) -> List[int]:
        kinds = {entry.match.kind for entry in ordered}
        boundaries = []
        rank = 0
        for layer in self.layers:
            if layer.capacity is None and layer.geometry is None:
                rank = len(ordered)
            elif layer.geometry is not None:
                costs = {layer.geometry.entry_cost(kind) for kind in kinds}
                if len(costs) <= 1:
                    cost = costs.pop() if costs else 1.0
                    rank = min(len(ordered), rank + int(layer.geometry.slot_units // cost))
                else:
                    budget = layer.geometry.slot_units
                    while rank < len(ordered):
                        cost = layer.geometry.entry_cost(ordered[rank].match.kind)
                        if cost > budget:
                            break
                        budget -= cost
                        rank += 1
            else:
                rank = min(len(ordered), rank + layer.capacity)
            boundaries.append(rank)
        return boundaries

    def boundaries(self) -> List[int]:
        return self._walk(self.entries_by_rank())

    def fits(self, candidate: FlowEntry) -> bool:
        if any(layer.capacity is None and layer.geometry is None for layer in self.layers):
            return True
        ordered = self.entries_by_rank() + [candidate]
        ordered.sort(
            key=lambda e: (_reference_score(self.policy, e), e.entry_id), reverse=True
        )
        return self._walk(ordered)[-1] >= len(ordered)

    def insert(self, match: Match, priority: int, now_ms: float) -> FlowEntry:
        entry = FlowEntry(match, priority, ACTIONS, self.next_id, now_ms)
        if not self.fits(entry):
            raise TableFullError(capacity=len(self.entries))
        self.next_id += 1
        self.entries[entry.entry_id] = entry
        return entry

    def layer_of(self, entry: FlowEntry) -> int:
        rank = [e.entry_id for e in self.entries_by_rank()].index(entry.entry_id)
        return next(i for i, boundary in enumerate(self.boundaries()) if rank < boundary)

    def layer_occupancy(self) -> List[int]:
        boundaries = self.boundaries()
        return [b - a for a, b in zip([0] + boundaries[:-1], boundaries)]

    def occupancy_snapshot(self) -> Dict[str, object]:
        ordered = self.entries_by_rank()
        boundaries = self._walk(ordered)
        layers = []
        previous = 0
        for layer, boundary in zip(self.layers, boundaries):
            count = boundary - previous
            ratio: Optional[float] = None
            if layer.capacity is not None:
                ratio = count / layer.capacity if layer.capacity else 1.0
            elif layer.geometry is not None:
                used = sum(
                    layer.geometry.entry_cost(entry.match.kind)
                    for entry in ordered[previous:boundary]
                )
                ratio = used / layer.geometry.slot_units
            layers.append({"name": layer.name, "entries": count, "ratio": ratio})
            previous = boundary
        return {"total": len(self.entries), "layers": layers}


def _outcome(call):
    try:
        return ("ok", call())
    except (TableFullError, ValueError) as error:
        return ("error", type(error).__name__)


def _decision(outcome) -> str:
    return "accepted" if outcome[0] == "ok" else outcome[1]


def _state(stack, entries):
    """Everything observable about a stack, for comparing the two."""
    return (
        [e.entry_id for e in stack.entries_by_rank()],
        [
            [e.entry_id for e in stack.worst_entries(count)]
            for count in range(len(entries) + 2)
        ],
        [_outcome(lambda e=e: stack.layer_of(e)) for e in entries],
        _outcome(stack.layer_occupancy),
        _outcome(stack.occupancy_snapshot),
    )


_KINDS = st.sampled_from([MatchKind.L2, MatchKind.L3, MatchKind.L2_L3])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KINDS, st.integers(0, 4), st.integers(0, 6)),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("touch"), st.integers(0, 63), st.integers(0, 6), st.integers(1, 3)),
        st.tuples(st.just("priority"), st.integers(0, 63), st.integers(0, 4)),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=40,
)

#: Mostly touches (several per entry between ranking changes), so cached
#: layers are read many times before a change invalidates them.
_TOUCH_HEAVY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KINDS, st.integers(0, 4), st.integers(0, 6)),
        st.tuples(st.just("touch"), st.integers(0, 63), st.integers(0, 9), st.integers(1, 3)),
        st.tuples(st.just("touch"), st.integers(0, 63), st.integers(0, 9), st.integers(1, 3)),
        st.tuples(st.just("touch"), st.integers(0, 63), st.integers(0, 9), st.integers(1, 3)),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("priority"), st.integers(0, 63), st.integers(0, 4)),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=60,
)

#: Layer sets with more than one layer, where a layer lookup is cached.
_MULTI_LAYER_SETS = sorted(name for name, layers in LAYER_SETS.items() if len(layers) > 1)


@settings(max_examples=300, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(STANDARD_POLICIES)),
    layer_set=st.sampled_from(sorted(LAYER_SETS)),
    operations=_OPS,
)
@example(
    # Touches that move the wide entry to the back shift the mixed-cost
    # TCAM boundary from 3 to 4 entries.
    policy_name="LRU",
    layer_set="adaptive_wide_tiers",
    operations=[("insert", MatchKind.L3, 1, 0)] * 4
    + [("insert", MatchKind.L2_L3, 1, 0)]
    + [("touch", index, index + 1, 1) for index in range(4)],
)
@example(
    # Two wide and two narrow entries fill all 7 slots: a third narrow
    # one must be rejected although 7 narrow entries would fit.
    policy_name="FIFO",
    layer_set="adaptive_only",
    operations=[("insert", MatchKind.L2_L3, 1, 0)] * 2 + [("insert", MatchKind.L3, 1, 0)] * 3,
)
def test_stack_matches_naive_reference(policy_name, layer_set, operations):
    _check_against_reference(policy_name, layer_set, operations)


@pytest.mark.parametrize("policy_name", sorted(STANDARD_POLICIES))
@settings(max_examples=40, deadline=None)
@given(layer_set=st.sampled_from(_MULTI_LAYER_SETS), operations=_TOUCH_HEAVY_OPS)
def test_touches_and_cached_layers_match_reference_under_every_policy(
    policy_name, layer_set, operations
):
    _check_against_reference(policy_name, layer_set, operations)


@pytest.mark.parametrize("policy_name", sorted(STANDARD_POLICIES))
def test_each_ranking_change_refreshes_cached_layers(policy_name):
    """A removal or clear alone (no reinsertion) must drop cached layers:
    removing the best-ranked entry promotes the best slow one."""
    inserts = [("insert", MatchKind.L3, index % 3, index) for index in range(7)]
    touches = [("touch", index, 7 + index, 1 + index % 2) for index in range(7)]
    reads = touches[:1]  # fills the cache, at most one change
    for operations in (
        inserts + reads + [("remove", k) for k in range(7)],
        inserts + touches + reads + [("remove", k) for k in (6, 0, 3)],
        inserts + reads + [("clear",)] + inserts[:4] + reads,
        inserts + reads + [("priority", k, 4 - k % 5) for k in range(7)],
    ):
        _check_against_reference(policy_name, "plain_bounded", operations)
        _check_against_reference(policy_name, "adaptive_wide_tiers", operations)


def _check_against_reference(policy_name, layer_set, operations):
    policy = STANDARD_POLICIES[policy_name]
    layers = LAYER_SETS[layer_set]
    stack = RankedTableStack(layers, policy)
    reference = ReferenceStack(layers, policy)
    live: List[tuple] = []  # (stack entry, reference entry)
    for index, operation in enumerate(operations):
        name = operation[0]
        if name == "insert":
            _, kind, priority, now = operation
            match = _match(index, kind)
            got = _outcome(lambda: stack.insert(match, priority, ACTIONS, float(now)))
            want = _outcome(lambda: reference.insert(match, priority, float(now)))
            assert _decision(got) == _decision(want)
            if got[0] == "ok":
                assert got[1].entry_id == want[1].entry_id
                live.append((got[1], want[1]))
        elif name == "clear":
            stack.clear()
            reference.entries.clear()
            live.clear()
        elif live:
            mine, theirs = live[operation[1] % len(live)]
            if name == "remove":
                stack.remove(mine)
                del reference.entries[theirs.entry_id]
                live.remove((mine, theirs))
            elif name == "touch":
                _, _, now, packets = operation
                stack.touch(mine, float(now), packets=packets)
                theirs.touch(float(now), packets=packets)
            else:
                stack.update_priority(mine, operation[2])
                theirs.priority = operation[2]
        assert len(stack) == len(reference.entries)
        want = _state(reference, [t for _, t in live])
        assert _state(stack, [m for m, _ in live]) == want
        # Asked again with no change in between: answered from the cache.
        assert _state(stack, [m for m, _ in live]) == want
    for mine, _ in live:
        assert stack.entries_by_rank()[stack.rank_of(mine)] is mine


@settings(max_examples=60, deadline=None)
@given(
    inserted=st.floats(-1e6, 1e6, allow_nan=False),
    used=st.floats(-1e6, 1e6, allow_nan=False),
    traffic=st.integers(0, 10**9),
    priority=st.integers(0, 65535),
    entry_id=st.integers(0, 10**6),
)
def test_policy_score_matches_attribute_formula(inserted, used, traffic, priority, entry_id):
    entry = FlowEntry(Match(eth_dst=1), priority, ACTIONS, entry_id, inserted)
    entry.last_used_at_ms = used
    entry.traffic_count = traffic
    for policy in STANDARD_POLICIES.values():
        score = policy.score(entry)
        assert score == _reference_score(policy, entry)
        assert all(type(part) is float for part in score)
