"""Pre-execution static verification for Tango control plans.

The package provides four checkers sharing one diagnostic model
(:mod:`repro.analysis.diagnostics`):

* :mod:`repro.analysis.rulecheck` — rule-set overlap/shadowing (TNG00x)
* :mod:`repro.analysis.dagcheck` — request-DAG validity (TNG01x)
* :mod:`repro.analysis.capacity` — TCAM admission control (TNG02x)
* :mod:`repro.analysis.lint` — source determinism + event-order linter
  (TNG03x, TNG041–TNG043)

:func:`analyze_dag` bundles the plan-facing checks (DAG + rules +
capacity) into the single call a scheduler's ``precheck`` and the CLI
use.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.capacity import (
    batch_slot_demand,
    check_capacity,
    check_dag_capacity,
    group_by_location,
)
from repro.analysis.dagcheck import check_dag
from repro.analysis.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    DiagnosticError,
    DiagnosticReport,
    Severity,
)
from repro.analysis.rulecheck import check_rules

__all__ = [
    "CODE_CATALOG",
    "Diagnostic",
    "DiagnosticError",
    "DiagnosticReport",
    "Severity",
    "analyze_dag",
    "batch_slot_demand",
    "check_capacity",
    "check_dag",
    "check_dag_capacity",
    "check_rules",
    "group_by_location",
    "lint_paths",
    "lint_source",
]

#: Lazily imported names -> providing submodule.  Lint is lazy so
#: ``python -m repro.analysis.lint`` does not trigger runpy's
#: double-import warning.
_LAZY = {
    "lint_paths": "lint",
    "lint_source": "lint",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is not None:
        import importlib

        return getattr(importlib.import_module(f"repro.analysis.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def analyze_dag(
    dag,
    estimate=None,
    guard_ms: Optional[float] = None,
    geometries: Optional[Dict[str, object]] = None,
    existing: Sequence[Tuple] = (),
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """Run every plan-facing static check a request DAG supports.

    Always validates the DAG structure (cycles, orphan barriers) and the
    per-switch rule batches (duplicates, shadowing, dangling operations).
    With a duration ``estimate`` it also bounds deadline feasibility;
    with ``guard_ms`` it checks concurrent-dispatch guard times; with
    per-switch ``geometries`` it performs capacity admission.

    Args:
        dag: a :class:`~repro.core.requests.RequestDag`.
        estimate: optional per-request duration estimator (ms).
        guard_ms: optional concurrent-dispatch guard interval (ms).
        geometries: optional ``{switch_name: TcamGeometry}``.
        existing: ``(location, match, priority)`` triples of resident
            rules, consulted by the orphan-barrier and dangling-op
            checks.
        report: optional report to append to.
    """
    report = report if report is not None else DiagnosticReport()
    check_dag(
        dag, estimate=estimate, guard_ms=guard_ms, existing=existing, report=report
    )
    existing_by_location: Dict[str, list] = {}
    for location, match, priority in existing:
        existing_by_location.setdefault(location, []).append((match, priority))
    for location, batch in sorted(group_by_location(dag.requests).items()):
        check_rules(
            batch,
            existing=existing_by_location.get(location, ()),
            report=report,
            location=location,
        )
    if geometries:
        check_dag_capacity(dag, geometries, report=report)
    return report
