"""Cache-managing policies under the ATTRIB / MONOTONE / LEX model.

The paper formalises a switch's table-management policy as:

* [ATTRIB]   it examines a subset of {insertion time, use time, traffic
  count, priority};
* [MONOTONE] each attribute is compared by a monotone (increasing or
  decreasing) function, so only the *sign* of differences matters;
* [LEX]      flows are totally ordered lexicographically under some
  permutation of the attributes, and the flow that comes last is evicted.

A :class:`CachePolicy` is exactly such a permutation with per-attribute
directions.  Classic policies fall out as one-attribute special cases:
FIFO keeps the *oldest-inserted* flows (Switch #1's software-to-TCAM
promotion), LRU keeps most-recently-used, LFU keeps highest traffic, and
a priority cache keeps the highest-priority rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

from repro.tables.entry import FlowAttribute, FlowEntry


#: The FlowEntry field holding each attribute's value (see
#: :meth:`FlowEntry.attribute_value`).
_ATTRIBUTE_FIELDS: Dict[FlowAttribute, str] = {
    FlowAttribute.INSERTION: "inserted_at_ms",
    FlowAttribute.USE_TIME: "last_used_at_ms",
    FlowAttribute.TRAFFIC: "traffic_count",
    FlowAttribute.PRIORITY: "priority",
}


class Direction(enum.Enum):
    """MONOTONE comparison direction for one attribute.

    ``INCREASING`` means larger values score better (kept in cache);
    ``DECREASING`` means smaller values score better.
    """

    INCREASING = 1
    DECREASING = -1


@dataclass(frozen=True)
class CachePolicy:
    """A lexicographic cache-retention policy.

    The cache retains the flows that score *highest* under the
    lexicographic ordering; the lowest-scoring flows live in lower table
    layers (or nowhere, for switches without software tables).

    Args:
        terms: ordered (attribute, direction) pairs; the first term is the
            primary sort attribute.
        name: human-readable label.
    """

    terms: Tuple[Tuple[FlowAttribute, Direction], ...]
    name: str = ""
    # (FlowEntry field, sign) per term, resolved once per instance in
    # __post_init__: score() runs for every filed rule.  Declared ClassVar
    # so it is not a dataclass field and eq/hash/repr ignore it.
    _fields: ClassVar[Tuple[Tuple[str, float], ...]]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a CachePolicy needs at least one term")
        attributes = [attribute for attribute, _ in self.terms]
        if len(set(attributes)) != len(attributes):
            raise ValueError("duplicate attribute in policy terms")
        object.__setattr__(
            self,
            "_fields",
            tuple(
                (_ATTRIBUTE_FIELDS[attribute], float(direction.value))
                for attribute, direction in self.terms
            ),
        )

    @property
    def primary(self) -> FlowAttribute:
        return self.terms[0][0]

    def score(self, entry: FlowEntry) -> Tuple[float, ...]:
        """The entry's retention score; larger tuples are retained.

        The final tie-breaker is the entry id (newer wins), making the
        ordering total, as LEX requires.
        """
        parts = [sign * getattr(entry, name) for name, sign in self._fields]
        parts.append(float(entry.entry_id))
        return tuple(parts)

    def describe(self) -> str:
        terms = ", ".join(
            f"{attribute.value}:{'+' if direction is Direction.INCREASING else '-'}"
            for attribute, direction in self.terms
        )
        return self.name or f"lex({terms})"


def _single(attribute: FlowAttribute, direction: Direction, name: str) -> CachePolicy:
    return CachePolicy(terms=((attribute, direction),), name=name)


#: Keep the oldest-inserted flows (Switch #1 fills TCAM first-come-first-kept).
FIFO = _single(FlowAttribute.INSERTION, Direction.DECREASING, "FIFO")

#: Keep the newest-inserted flows.
LIFO = _single(FlowAttribute.INSERTION, Direction.INCREASING, "LIFO")

#: Keep the most recently used flows.
LRU = _single(FlowAttribute.USE_TIME, Direction.INCREASING, "LRU")

#: Keep the most heavily used flows.
LFU = _single(FlowAttribute.TRAFFIC, Direction.INCREASING, "LFU")

#: Keep the highest-priority rules in the fast table.
PRIORITY_CACHE = _single(FlowAttribute.PRIORITY, Direction.INCREASING, "PRIORITY")

#: Traffic first, then priority; a plausible vendor heuristic used in the
#: paper's lexicographic example (footnote 2).
TRAFFIC_THEN_PRIORITY = CachePolicy(
    terms=(
        (FlowAttribute.TRAFFIC, Direction.INCREASING),
        (FlowAttribute.PRIORITY, Direction.INCREASING),
    ),
    name="TRAFFIC+PRIORITY",
)

#: Priority first, then most-recently-used.
PRIORITY_THEN_LRU = CachePolicy(
    terms=(
        (FlowAttribute.PRIORITY, Direction.INCREASING),
        (FlowAttribute.USE_TIME, Direction.INCREASING),
    ),
    name="PRIORITY+LRU",
)

#: Policies exercised by the inference-accuracy experiments.
STANDARD_POLICIES: Dict[str, CachePolicy] = {
    policy.name: policy
    for policy in (FIFO, LIFO, LRU, LFU, PRIORITY_CACHE, TRAFFIC_THEN_PRIORITY, PRIORITY_THEN_LRU)
}
