"""Static admission control: does a request batch fit the TCAM?

Flow-table overflow is the failure mode the inference-attack literature
weaponises — an attacker (or an over-eager application) pushes the rule
count past the TCAM and every subsequent install lands in the slow
software path.  This checker answers, *before any flow_mod is issued*,
whether a batch fits the switch's :class:`~repro.tables.tcam.TcamGeometry`
(single-/double-/adaptive-width slot accounting, paper Table 1):

* **TNG021 unstorable entry** — a match kind the geometry's mode cannot
  hold at all (an L2+L3 match on a single-wide TCAM).
* **TNG020 over capacity** — the batch's net slot demand (ADDs minus
  DELETEs) exceeds the geometry's free slot units.
* **TNG022 high water** — the batch fits but drives occupancy above a
  configurable fraction (default 90%), leaving no headroom for microflow
  caching or failure rerouting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.tables.tcam import TcamGeometry


def batch_slot_demand(
    flow_mods: Sequence[FlowMod], geometry: TcamGeometry
) -> Tuple[float, List[Tuple[int, FlowMod]]]:
    """Net slot-unit demand of a batch, plus the unstorable operations.

    ADDs consume each entry's width-dependent cost, DELETEs release it,
    MODIFYs are width-neutral.  Returns ``(net_units, unstorable)``
    where ``unstorable`` lists ``(index, flow_mod)`` pairs whose match
    kind the geometry rejects outright.
    """
    net = 0.0
    unstorable: List[Tuple[int, FlowMod]] = []
    for index, flow_mod in enumerate(flow_mods):
        if flow_mod.command is FlowModCommand.MODIFY:
            continue
        try:
            cost = geometry.entry_cost(flow_mod.match.kind)
        except ValueError:
            unstorable.append((index, flow_mod))
            continue
        if flow_mod.command is FlowModCommand.ADD:
            net += cost
        else:
            net -= cost
    return net, unstorable


def check_capacity(
    flow_mods: Sequence[FlowMod],
    geometry: TcamGeometry,
    occupied_units: float = 0.0,
    high_water: float = 0.9,
    report: Optional[DiagnosticReport] = None,
    location: str = "",
) -> DiagnosticReport:
    """Admission-check a batch against a TCAM geometry.

    Args:
        flow_mods: the batch bound for one switch.
        geometry: the switch's TCAM geometry.
        occupied_units: slot units already in use on the switch.
        high_water: occupancy fraction above which TNG022 fires.
        report: optional report to append to.
        location: switch name recorded on every diagnostic.
    """
    report = report if report is not None else DiagnosticReport()
    net, unstorable = batch_slot_demand(flow_mods, geometry)
    for index, flow_mod in unstorable:
        report.add(
            "TNG021",
            Severity.ERROR,
            f"operation #{index} carries an {flow_mod.match.kind.value} "
            f"match, which a {geometry.mode.value} TCAM cannot store",
            location=location,
            hint="split the match into per-layer rules or switch the TCAM "
            "to double-wide/adaptive mode",
        )

    projected = occupied_units + net
    if projected > geometry.slot_units:
        report.add(
            "TNG020",
            Severity.ERROR,
            f"batch needs {net:g} net slot units on top of "
            f"{occupied_units:g} occupied, but the TCAM holds only "
            f"{geometry.slot_units:g} ({geometry.mode.value})",
            location=location,
            hint="shrink the batch or delete stale rules first",
        )
    elif projected > high_water * geometry.slot_units:
        report.add(
            "TNG022",
            Severity.WARNING,
            f"batch drives occupancy to {projected:g} of "
            f"{geometry.slot_units:g} slot units "
            f"({projected / geometry.slot_units:.0%}), above the "
            f"{high_water:.0%} high-water mark",
            location=location,
            hint="leave headroom for microflow caching and rerouting",
        )
    return report


def group_by_location(
    requests: Sequence,
) -> Dict[str, List[FlowMod]]:
    """Split a request iterable into per-switch FlowMod batches.

    Accepts :class:`~repro.core.requests.SwitchRequest` objects (or
    anything with ``location`` and ``mod``), preserving order.
    """
    batches: Dict[str, List[FlowMod]] = {}
    for request in requests:
        batches.setdefault(request.location, []).append(request.mod)
    return batches


def check_dag_capacity(
    dag,
    geometries: Dict[str, TcamGeometry],
    occupied_units: Optional[Dict[str, float]] = None,
    high_water: float = 0.9,
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """Admission-check every switch's share of a request DAG.

    Switches without a geometry in ``geometries`` are skipped (nothing
    is known to check against).
    """
    report = report if report is not None else DiagnosticReport()
    occupied_units = occupied_units or {}
    for location, batch in sorted(group_by_location(dag.requests).items()):
        geometry = geometries.get(location)
        if geometry is None:
            continue
        check_capacity(
            batch,
            geometry,
            occupied_units=occupied_units.get(location, 0.0),
            high_water=high_water,
            report=report,
            location=location,
        )
    return report
