"""Static rule-set verification: duplicates, shadowing, ambiguous overlap.

Tango cannot trust a switch to reject a bad rule set — many silently
accept duplicates or install shadowed rules that never match (the paper's
premise is exactly that switches diverge from their self-reports).  This
checker runs the classic pairwise analyses over a batch of
:class:`~repro.openflow.messages.FlowMod` operations *before* anything
is issued, using the reproduction's own :class:`~repro.openflow.match.Match`
overlap/cover semantics:

* **TNG001 duplicate** — two ADDs with the same match and priority but
  different actions: the switch's tie-break decides which wins.
* **TNG002 shadowed** — an ADD whose match is fully covered by a
  strictly-higher-priority ADD in the same batch: dead rule, wasted TCAM.
* **TNG003 ambiguous overlap** — two same-priority ADDs whose matches
  overlap (without being identical) and whose actions differ: packet
  fate depends on unspecified switch behaviour.
* **TNG004 dangling operation** — a MODIFY/DELETE that selects no rule
  among the batch's ADDs or the supplied pre-existing rules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.openflow.match import Match, overlapping_pairs
from repro.openflow.messages import FlowMod, FlowModCommand

#: A rule already resident on the switch: (match, priority).
ExistingRule = Tuple[Match, int]

_PAIRWISE_DEFAULT_LIMIT = 5000


def _selects(operation: FlowMod, match: Match, priority: int) -> bool:
    """OpenFlow MODIFY/DELETE selection: the operation's match covers the
    rule's match (non-strict semantics) at the same priority."""
    return operation.priority == priority and operation.match.covers(match)


def check_rules(
    flow_mods: Sequence[FlowMod],
    existing: Sequence[Tuple] = (),
    report: Optional[DiagnosticReport] = None,
    location: str = "",
    pairwise_limit: int = _PAIRWISE_DEFAULT_LIMIT,
) -> DiagnosticReport:
    """Statically verify one switch's batch of flow-table operations.

    Args:
        flow_mods: the batch, in issue order.
        existing: ``(match, priority)`` pairs already installed on the
            switch (lets TNG004 account for resident rules).
        report: optional report to append to (a fresh one is created
            otherwise).
        location: switch name recorded on every diagnostic.
        pairwise_limit: above this many ADDs the pairwise checks
            (TNG001-TNG003) are skipped; TNG004 still runs.

    Returns:
        The report with any findings appended.
    """
    report = report if report is not None else DiagnosticReport()
    adds: List[Tuple[int, FlowMod]] = [
        (index, fm)
        for index, fm in enumerate(flow_mods)
        if fm.command is FlowModCommand.ADD
    ]

    if len(adds) <= pairwise_limit:
        _check_pairwise(adds, report, location)

    _check_dangling(flow_mods, existing, report, location)
    return report


def _check_pairwise(
    adds: Sequence[Tuple[int, FlowMod]], report: DiagnosticReport, location: str
) -> None:
    # Only overlapping pairs can be findings; identical matches always
    # overlap, so duplicates are among them.
    for a_pos, b_pos in overlapping_pairs([fm.match for _, fm in adds]):
        a_index, a = adds[a_pos]
        b_index, b = adds[b_pos]
        if a.match.key() == b.match.key() and a.priority == b.priority:
            if a.actions != b.actions:
                report.add(
                    "TNG001",
                    Severity.ERROR,
                    f"ADD #{b_index} duplicates ADD #{a_index} "
                    f"(match {a.match}, priority {a.priority}) "
                    "with different actions",
                    location=location,
                    hint="drop one rule or give them distinct priorities",
                )
            continue
        high, low = (a, b) if a.priority > b.priority else (b, a)
        high_index, low_index = (
            (a_index, b_index) if a.priority > b.priority else (b_index, a_index)
        )
        if high.priority != low.priority and high.match.covers(low.match):
            report.add(
                "TNG002",
                Severity.ERROR,
                f"ADD #{low_index} (priority {low.priority}) is fully "
                f"shadowed by ADD #{high_index} (priority {high.priority})",
                location=location,
                hint="remove the dead rule or raise its priority above "
                "the covering rule",
            )
        elif a.priority == b.priority and a.actions != b.actions:
            report.add(
                "TNG003",
                Severity.WARNING,
                f"ADD #{a_index} and ADD #{b_index} overlap at equal "
                f"priority {a.priority} with different actions",
                location=location,
                hint="separate the priorities so the intended rule wins",
            )


def _check_dangling(
    flow_mods: Sequence[FlowMod],
    existing: Sequence[Tuple],
    report: DiagnosticReport,
    location: str,
) -> None:
    resident: List[Tuple] = [(match, priority) for match, priority in existing]
    for index, operation in enumerate(flow_mods):
        if operation.command is FlowModCommand.ADD:
            resident.append((operation.match, operation.priority))
            continue
        selected = any(
            _selects(operation, match, priority) for match, priority in resident
        )
        if not selected:
            report.add(
                "TNG004",
                Severity.WARNING,
                f"{operation.command.value.upper()} #{index} "
                f"(priority {operation.priority}) selects no rule installed "
                "by this batch or listed as pre-existing",
                location=location,
                hint="issue the ADD first, or pass the switch's resident "
                "rules via existing=",
            )
        if operation.command is FlowModCommand.DELETE:
            resident = [
                (match, priority)
                for match, priority in resident
                if not _selects(operation, match, priority)
            ]
