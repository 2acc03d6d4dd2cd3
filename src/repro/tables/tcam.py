"""TCAM geometry: capacity modes and the entry-shift cost model.

Capacity (paper Table 1): a TCAM of fixed physical size holds different
numbers of entries depending on entry width and operating mode:

* ``SINGLE_WIDE``  -- entries may match only L2 *or* only L3 headers; the
  full slot count is available (Switch #1 in L2- or L3-only mode: 4K).
* ``DOUBLE_WIDE``  -- every entry occupies a double slot so L2+L3 matches
  fit, and capacity halves for everything (Switch #1 combined mode: 2K;
  Switch #2: 2560 regardless of entry type).
* ``ADAPTIVE``     -- per-entry width: narrow entries cost one slot unit,
  wide (L2+L3) entries cost ``wide_cost`` units (Switch #3: 767 narrow or
  369 wide).

Install cost (paper Figures 3b/3c): TCAM entries must stay sorted by
priority, so adding a rule shifts every resident entry of *higher*
priority.  Adding in ascending priority order appends (no shifts) while
descending order shifts everything each time -- the asymmetry the Tango
scheduler exploits.  :class:`PriorityShiftModel` does the accounting
with a priority-sorted list.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import List

from repro.openflow.match import MatchKind


class TcamMode(enum.Enum):
    SINGLE_WIDE = "single-wide"
    DOUBLE_WIDE = "double-wide"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class TcamGeometry:
    """Physical TCAM capacity rules.

    Args:
        slot_units: total capacity in single-wide slot units.
        mode: operating mode (see module docstring).
        wide_cost: slot units consumed by an L2+L3 entry in ADAPTIVE mode.
    """

    slot_units: float
    mode: TcamMode = TcamMode.SINGLE_WIDE
    wide_cost: float = 2.0

    def __post_init__(self) -> None:
        if self.slot_units <= 0:
            raise ValueError("slot_units must be positive")
        if self.wide_cost < 1.0:
            raise ValueError("wide_cost must be at least 1")

    def entry_cost(self, kind: MatchKind) -> float:
        """Slot units consumed by one entry of the given match kind.

        Raises:
            ValueError: if the entry kind cannot be stored in this mode.
        """
        if self.mode is TcamMode.SINGLE_WIDE:
            if kind is MatchKind.L2_L3:
                raise ValueError("single-wide TCAM cannot hold L2+L3 entries")
            return 1.0
        if self.mode is TcamMode.DOUBLE_WIDE:
            return 2.0
        return self.wide_cost if kind is MatchKind.L2_L3 else 1.0

    def capacity_for(self, kind: MatchKind) -> int:
        """Maximum number of same-kind entries this TCAM can hold."""
        return int(self.slot_units // self.entry_cost(kind))


class PriorityShiftModel:
    """Counts how many TCAM entries an add must shift.

    Mirrors a priority-sorted physical layout where free space sits after
    the lowest-priority entry: inserting at priority ``p`` displaces every
    resident entry with priority strictly greater than ``p``.  Vendors'
    software keeps the full rule list priority-sorted even when part of it
    overflows to software tables, so the shift count is taken over all
    installed rules (consistent with the superlinear growth through
    5000 rules in paper Figure 3c).

    Accounting is a priority-sorted Python list: ``shifts_for_add`` is a
    bisect, ``record_add`` / ``record_delete`` a bisect plus one list
    insert/delete.  The insert is O(n) element moves, but they run as one
    C-level ``memmove``; at every real TCAM size that beats an O(log n)
    tree walked in Python.  :attr:`accounting_ops` reports those element
    moves.
    """

    def __init__(self) -> None:
        self._priorities: List[int] = []
        self.accounting_ops = 0  # elements moved by list inserts/deletes

    def __len__(self) -> int:
        return len(self._priorities)

    def shifts_for_add(self, priority: int) -> int:
        """Entries that would shift if a rule at ``priority`` is added."""
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        return len(self._priorities) - bisect.bisect_right(self._priorities, priority)

    def record_add(self, priority: int) -> int:
        """Insert the priority and return the number of shifted entries."""
        shifted = self.shifts_for_add(priority)
        self._priorities.insert(len(self._priorities) - shifted, priority)
        self.accounting_ops += shifted + 1
        return shifted

    def record_delete(self, priority: int) -> None:
        priorities = self._priorities
        index = bisect.bisect_left(priorities, priority)
        if index >= len(priorities) or priorities[index] != priority:
            raise ValueError(f"priority {priority} not present")
        self.accounting_ops += len(priorities) - index
        del priorities[index]

    def clear(self) -> None:
        self._priorities.clear()


class SortedListShiftModel(PriorityShiftModel):
    """The sorted-list model's former name, kept importable.

    A subclass rather than an alias, so code that instruments both
    names wraps each method once.
    """
