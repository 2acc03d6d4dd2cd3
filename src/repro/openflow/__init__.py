"""An in-process OpenFlow control substrate.

This package models the controller-switch protocol semantics the paper's
algorithms rely on: flow_mod (add / modify / delete) with priorities and
match fields, packet-out probes, barriers, and the table-full error that
the size-inference algorithm uses as its stopping condition.

It deliberately does not implement the OpenFlow wire format; messages are
plain Python objects exchanged over a latency-modelled in-process channel.
"""

from repro.openflow.actions import Action, ControllerAction, DropAction, OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import (
    OpenFlowError,
    TableFullError,
    BadMatchError,
    FlowNotFoundError,
    TransientFaultError,
    ControlMessageLostError,
    FlowModRejectedError,
    SwitchDisconnectedError,
)
from repro.openflow.match import Match, MatchKind
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowModCommand,
    FlowStatsReply,
    FlowStatsRequest,
    PacketOut,
)

__all__ = [
    "Action",
    "OutputAction",
    "DropAction",
    "ControllerAction",
    "ControlChannel",
    "OpenFlowError",
    "TableFullError",
    "BadMatchError",
    "FlowNotFoundError",
    "TransientFaultError",
    "ControlMessageLostError",
    "FlowModRejectedError",
    "SwitchDisconnectedError",
    "Match",
    "MatchKind",
    "FlowMod",
    "FlowModCommand",
    "PacketOut",
    "BarrierRequest",
    "BarrierReply",
    "FlowStatsRequest",
    "FlowStatsReply",
]
