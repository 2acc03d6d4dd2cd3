"""Controller-to-switch and switch-to-controller messages.

These are the in-process analogues of OpenFlow protocol messages.  A
:class:`FlowMod` carries the command (ADD / MODIFY / DELETE), the match,
the priority, the actions, and the optional ``install_by`` deadline that
Tango switch requests may specify (Section 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.openflow.actions import Action, OutputAction
from repro.openflow.match import Match, PacketFields


class FlowModCommand(enum.Enum):
    """The three flow-table operations the paper's patterns reorder."""

    ADD = "add"
    MODIFY = "mod"
    DELETE = "del"

    # Members are singletons: hash by identity, in C (see MatchKind).
    __hash__ = object.__hash__


@dataclass(frozen=True, init=False)
class FlowMod:
    """A flow-table modification request.

    Slotted, with an explicit ``__init__`` (``dataclass(slots=True)``
    needs Python 3.10): every switch request keeps its own.

    Args:
        command: ADD, MODIFY, or DELETE.
        match: match condition; for MODIFY/DELETE selects the target entry.
        priority: OpenFlow priority (higher wins).
        actions: actions applied to matching packets (ADD/MODIFY).
        install_by_ms: optional deadline in virtual ms (None = best effort).
        table_id: pipeline table the rule belongs to (OpenFlow 1.1+;
            single-table switches only accept table 0).
    """

    __slots__ = ("command", "match", "priority", "actions", "install_by_ms", "table_id")

    command: FlowModCommand
    match: Match
    priority: int
    actions: Tuple[Action, ...]
    install_by_ms: Optional[float]
    table_id: int

    def __init__(
        self,
        command: FlowModCommand,
        match: Match,
        priority: int = 0,
        actions: Tuple[Action, ...] = (OutputAction(port=1),),
        install_by_ms: Optional[float] = None,
        table_id: int = 0,
    ) -> None:
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        if table_id < 0:
            raise ValueError(f"table_id must be non-negative, got {table_id}")
        if command is not FlowModCommand.DELETE and not actions:
            raise ValueError("ADD/MODIFY require at least one action")
        put = object.__setattr__  # frozen: the generated __setattr__ raises
        put(self, "command", command)
        put(self, "match", match)
        put(self, "priority", priority)
        put(self, "actions", actions)
        put(self, "install_by_ms", install_by_ms)
        put(self, "table_id", table_id)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the frozen __setattr__.
        return FlowMod, tuple(getattr(self, name) for name in self.__slots__)


@dataclass(frozen=True)
class PacketOut:
    """Controller-injected data-plane packet (used by probe traffic)."""

    packet: PacketFields
    in_port: int = 0


@dataclass(frozen=True)
class BarrierRequest:
    """Ask the switch to finish all preceding operations."""

    xid: int = 0


@dataclass(frozen=True)
class BarrierReply:
    """Barrier completion notification."""

    xid: int = 0
    completed_at_ms: float = 0.0


@dataclass(frozen=True)
class FlowStatsRequest:
    """Request per-flow statistics (used by probe bookkeeping)."""

    match: Optional[Match] = None


@dataclass(frozen=True)
class FlowStatsEntry:
    """One flow's statistics."""

    match: Match
    priority: int
    packet_count: int
    table_name: str


@dataclass(frozen=True)
class FlowStatsReply:
    """Reply carrying statistics for matching flows."""

    entries: Tuple[FlowStatsEntry, ...] = field(default_factory=tuple)
