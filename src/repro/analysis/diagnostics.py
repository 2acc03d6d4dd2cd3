"""The unified diagnostic model for Tango's static checkers.

Every pre-execution checker in :mod:`repro.analysis` reports problems as
:class:`Diagnostic` records carrying a stable ``TNG0xx`` code, a
severity, a human-readable message, a location (a switch name, a request
id, or a ``file:line``), and an optional fix hint.  Checkers append
their findings to a shared :class:`DiagnosticReport`, which callers
render, filter, or — in a scheduler's ``precheck`` — turn into a
:class:`DiagnosticError`.

Code ranges (one block per checker):

* ``TNG00x`` — rule-set checks (:mod:`repro.analysis.rulecheck`)
* ``TNG01x`` — request-DAG checks (:mod:`repro.analysis.dagcheck`)
* ``TNG02x`` — capacity admission checks (:mod:`repro.analysis.capacity`)
* ``TNG03x`` — determinism linter (:mod:`repro.analysis.lint`)
* ``TNG04x`` — event-order lint rules (:mod:`repro.analysis.lint`)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ERROR diagnostics fail a scheduler's ``precheck`` and ``tango-lint``;
    WARNING and INFO are advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: Registry of every diagnostic code with a one-line summary.  Kept in
#: one place so reports, docs, and tests agree on the catalogue.
CODE_CATALOG: Dict[str, str] = {
    # rulecheck ------------------------------------------------------------
    "TNG001": "duplicate rule: same match and priority with conflicting actions",
    "TNG002": "shadowed rule: a higher-priority rule fully covers this match",
    "TNG003": "ambiguous overlap: same-priority rules overlap with different actions",
    "TNG004": "dangling operation: MODIFY/DELETE targets no known rule",
    # dagcheck -------------------------------------------------------------
    "TNG010": "dependency cycle in the request DAG",
    "TNG011": "orphan barrier: a gating DELETE matches nothing the DAG installs",
    "TNG012": "deadline infeasible: no schedule can meet this install_by deadline",
    "TNG013": "guard-time violation: concurrent dispatch would release a request "
    "before its dependency starts",
    # capacity -------------------------------------------------------------
    "TNG020": "over capacity: the batch does not fit the TCAM geometry",
    "TNG021": "unstorable entry: match kind unsupported by the TCAM mode",
    "TNG022": "high water: batch drives TCAM occupancy above the safe fraction",
    # lint -----------------------------------------------------------------
    "TNG030": "wall clock: time/datetime call outside the simulation substrate",
    "TNG031": "unseeded randomness outside sim/rng.py",
    "TNG032": "unordered iteration over a set feeding deterministic code",
    "TNG033": "mutable default argument",
    "TNG034": "unparseable source: the file is not valid Python",
    "TNG035": "swallowed exception: bare/broad except handler without a raise",
    # event-order lint -----------------------------------------------------
    "TNG041": "module-level mutable state in simulator/core code",
    "TNG042": "shared module state mutated inside a resumable generator, "
    "bypassing the event queue",
    "TNG043": "object-identity ordering: id() used as a sort key or in an "
    "ordering comparison",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static checker.

    Args:
        code: stable ``TNG0xx`` identifier (see :data:`CODE_CATALOG`).
        severity: ERROR, WARNING, or INFO.
        message: human-readable description of this specific finding.
        location: where it was found — a switch name, ``request <id>``,
            or ``path:line`` for lint findings.
        hint: optional suggestion for fixing the problem.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODE_CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def format(self) -> str:
        """One-line rendering: ``TNG002 error @ s1: message (hint: ...)``."""
        where = f" @ {self.location}" if self.location else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity.value}{where}: {self.message}{hint}"

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by reports and the CLI)."""
        payload: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.location:
            payload["location"] = self.location
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics from one or more checkers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        location: str = "",
        hint: Optional[str] = None,
    ) -> Diagnostic:
        """Create, record, and return one diagnostic."""
        diagnostic = Diagnostic(
            code=code,
            severity=severity,
            message=message,
            location=location,
            hint=hint,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(other)

    # -- filters ------------------------------------------------------------
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    # -- rendering ----------------------------------------------------------
    def format(self) -> str:
        """Multi-line rendering, errors first, stable within severity."""
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        ranked = sorted(
            enumerate(self.diagnostics), key=lambda p: (order[p[1].severity], p[0])
        )
        return "\n".join(d.format() for _, d in ranked)

    def to_dicts(self) -> List[dict]:
        return [d.to_dict() for d in self.diagnostics]

    def raise_on_errors(self) -> None:
        """Raise :class:`DiagnosticError` if any ERROR diagnostic exists."""
        if self.has_errors:
            raise DiagnosticError(self)


class DiagnosticError(RuntimeError):
    """Raised by :meth:`DiagnosticReport.raise_on_errors` when a report
    contains errors."""

    def __init__(self, report: DiagnosticReport) -> None:
        self.report = report
        errors = report.errors()
        summary = "; ".join(d.format() for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors) - 3} more)"
        super().__init__(f"{len(errors)} static-analysis error(s): {summary}")
