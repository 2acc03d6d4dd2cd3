"""Flow entries and their cache-relevant attributes.

The paper's ATTRIB assumption (Section 5.1) restricts cache policies to
four per-flow attributes that OpenFlow switches maintain anyway:

* time since insertion  (we store absolute insertion time),
* time since last use   (we store absolute last-use time),
* traffic count,
* rule priority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.openflow.actions import Action
from repro.openflow.match import Match


class FlowAttribute(enum.Enum):
    """The ATTRIB set from the paper's switch cache model."""

    INSERTION = "insertion"
    USE_TIME = "usage_time"
    TRAFFIC = "traffic"
    PRIORITY = "priority"


#: Attributes whose values are unique by construction (a strict sequence),
#: so a policy sorting on them already yields a total order (paper Alg. 2,
#: SERIAL_ATTRIBUTES).
SERIAL_ATTRIBUTES = frozenset({FlowAttribute.INSERTION, FlowAttribute.USE_TIME})


@dataclass(init=False)
class FlowEntry:
    """A rule installed in a switch plus its dynamic attributes.

    Slotted, with an explicit ``__init__`` (``dataclass(slots=True)``
    needs Python 3.10): a switch keeps one per installed rule.

    Args:
        match: the rule's match condition.
        priority: OpenFlow priority (higher wins on overlap).
        actions: the rule's action list.
        entry_id: switch-local sequence number (unique, insertion order).
        inserted_at_ms: virtual time of installation.
    """

    __slots__ = (
        "match",
        "priority",
        "actions",
        "entry_id",
        "inserted_at_ms",
        "last_used_at_ms",
        "traffic_count",
    )

    match: Match
    priority: int
    actions: Tuple[Action, ...]
    entry_id: int
    inserted_at_ms: float
    last_used_at_ms: float
    traffic_count: int

    def __init__(
        self,
        match: Match,
        priority: int,
        actions: Tuple[Action, ...],
        entry_id: int,
        inserted_at_ms: float,
        last_used_at_ms: float = -1.0,
        traffic_count: int = 0,
    ) -> None:
        self.match = match
        self.priority = priority
        self.actions = actions
        self.entry_id = entry_id
        self.inserted_at_ms = inserted_at_ms
        self.last_used_at_ms = last_used_at_ms
        self.traffic_count = traffic_count

    def touch(self, now_ms: float, packets: int = 1) -> None:
        """Record ``packets`` matching packets at virtual time ``now_ms``."""
        self.last_used_at_ms = now_ms
        self.traffic_count += packets

    def attribute_value(self, attribute: FlowAttribute) -> float:
        """The current value of one ATTRIB attribute."""
        if attribute is FlowAttribute.INSERTION:
            return self.inserted_at_ms
        if attribute is FlowAttribute.USE_TIME:
            return self.last_used_at_ms
        if attribute is FlowAttribute.TRAFFIC:
            return float(self.traffic_count)
        if attribute is FlowAttribute.PRIORITY:
            return float(self.priority)
        raise ValueError(f"unknown attribute {attribute!r}")
