"""AST determinism linter for the simulator's own source code.

The reproduction's headline guarantee is that every experiment is
deterministic run-to-run: all randomness flows through seeded
:class:`~repro.sim.rng.SeededRng` streams and all time through virtual
clocks.  That guarantee is only as strong as the code's discipline, so
this linter walks the package's ASTs and enforces it:

* **TNG030 wall clock** — calls to ``time.time``/``time.monotonic``/
  ``time.perf_counter`` (and their ``_ns`` variants)/``datetime.now``/
  ``datetime.utcnow``/
  ``datetime.today`` outside the simulation substrate (``sim/``).
  Virtual experiments must read virtual clocks; wall time is measured
  outside the package, by ``tangobench/``.
* **TNG031 unseeded randomness** — any use of the stdlib ``random``
  module, or of ``numpy.random``'s module-level functions, outside
  ``sim/rng.py``.  Unseeded draws silently break reproducibility.
* **TNG032 unordered iteration** — ``for`` loops and comprehensions
  iterating directly over a ``set`` display, set comprehension, or
  ``set(...)``/``frozenset(...)`` call without ``sorted(...)``.  Set
  iteration order is salted per process; feeding it into scheduler
  decisions makes runs diverge.
* **TNG033 mutable default argument** — list/dict/set displays (or
  constructor calls) as parameter defaults; shared mutable state across
  calls is a classic heisenbug source.
* **TNG034 unparseable source** — the file is not valid Python; it is
  reported (with the parse error's location) instead of aborting the
  whole lint run.
* **TNG035 swallowed exception** — a bare ``except:`` or broad
  ``except Exception``/``except BaseException`` handler whose body never
  re-raises.  Fault-tolerance code must catch the *specific* transient
  fault types (:data:`repro.faults.retry.TRANSIENT_FAULTS`): a broad
  swallow hides permanent signals such as
  :class:`~repro.openflow.errors.TableFullError` — the size probe's stop
  condition — and turns deterministic failures into silent divergence.

The TNG04x event-order rules flag source patterns that put state
outside the event queue's ordering, where neither the queue's order
nor a same-seed replay covers it:

* **TNG041 module-level mutable state** — a module-level ``list``/
  ``dict``/``set`` (display or constructor call) bound to a
  non-constant name inside ``sim/`` or ``core/``.  Module globals are
  process-wide: they outlive one run, so a second engine in the same
  process starts from the first one's leftovers instead of its seed.
  Dunder names (``__all__``) and ``UPPER_CASE`` constant-convention
  bindings are exempt — constants are fine, mutable *state* is not.
* **TNG042 generator shared-state mutation** — a resumable generator
  (the fleet's ``infer_steps`` pattern) assigning to, or calling a
  mutating method on, a ``global``/``nonlocal`` name.  Generator frames
  are suspended and resumed by the event queue; side channels around the
  queue escape the order it imposes.
* **TNG043 object-identity ordering** — ``id(...)`` used as a sort key
  (``sorted``/``min``/``max``/``.sort`` with ``key=id`` or an
  ``id``-calling lambda) or in an ordering comparison.  CPython ids are
  allocation addresses: per-process, per-run values that must never
  decide event or rule order.

Run it over the repository itself::

    python -m repro.analysis.lint src/repro
    tango-lint src/repro examples benchmarks    # console entry point

A finding on a deliberate pattern can be suppressed per line with a
trailing ``# tango-lint: disable=TNG0xx`` comment (comma-separate to
suppress several codes); suppressions apply only to that line.

``--format json`` emits the report as one JSON object for CI and
tooling.  Exit status is stable: 0 when clean, 1 when findings fail the
run (ERRORs, or WARNINGs under ``--warnings-as-errors``), 2 on usage
errors (unknown flag, missing target).
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import DiagnosticReport, Severity

#: Module paths (relative, forward-slash) exempt from a given rule.
WALL_CLOCK_ALLOWED = ("sim/",)
RANDOM_ALLOWED = ("sim/rng.py",)

#: Module paths where TNG041 (module-level mutable state) applies: the
#: simulation substrate and the core engines — the code whose state
#: must be a function of one run's seed and event order.
SHARED_STATE_PATHS = ("sim/", "core/")

#: Per-line suppression: ``# tango-lint: disable=TNG033`` (or a
#: comma-separated list of codes) on the offending line.
_SUPPRESS_RE = re.compile(r"#\s*tango-lint:\s*disable=([A-Z0-9_,\s]+)")

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

_SET_CONSTRUCTORS = {"set", "frozenset"}
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set"}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}

#: Collection constructors whose result is mutable state when bound at
#: module level (TNG041); matched on the call's last dotted component.
_MUTABLE_COLLECTION_CALLS = _MUTABLE_CONSTRUCTORS | {
    "deque",
    "defaultdict",
    "OrderedDict",
    "Counter",
}

#: Methods that mutate their receiver in place (TNG042).
_MUTATING_METHODS = {
    "append",
    "add",
    "clear",
    "extend",
    "insert",
    "pop",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

#: Callables whose ``key=`` argument defines an ordering (TNG043).
_ORDERING_CALLS = {"sorted", "min", "max", "sort"}


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The base name of ``a.b[c].d`` access chains; None otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _scope_nodes(body: Sequence[ast.stmt]):
    """Every node in a function's own scope, skipping nested scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue  # a nested scope: its yields/assignments are its own
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str, report: DiagnosticReport) -> None:
        self.relpath = relpath
        self.report = report

    def _at(self, node: ast.AST) -> str:
        return f"{self.relpath}:{getattr(node, 'lineno', 0)}"

    def _allowed(self, prefixes: Sequence[str]) -> bool:
        return any(self.relpath.startswith(prefix) for prefix in prefixes)

    # -- TNG041: module-level mutable state ---------------------------------
    def _is_mutable_value(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                return dotted.split(".")[-1] in _MUTABLE_COLLECTION_CALLS
        return False

    def visit_Module(self, node: ast.Module) -> None:
        if self._allowed(SHARED_STATE_PATHS):
            for stmt in node.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                if value is None or not self._is_mutable_value(value):
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    if name.isupper() or (
                        name.startswith("__") and name.endswith("__")
                    ):
                        continue  # constant convention / dunder metadata
                    self.report.add(
                        "TNG041",
                        Severity.ERROR,
                        f"module-level mutable binding {name!r} in shared "
                        "simulator/core code",
                        location=self._at(stmt),
                        hint="move the state into a class, or rename it "
                        "UPPER_CASE if it is a true constant",
                    )
        self.generic_visit(node)

    # -- TNG042: generator shared-state mutation ----------------------------
    def _check_generator_mutation(self, node) -> None:
        is_generator = False
        declared: Set[str] = set()
        for scoped in _scope_nodes(node.body):
            if isinstance(scoped, (ast.Yield, ast.YieldFrom)):
                is_generator = True
            elif isinstance(scoped, (ast.Global, ast.Nonlocal)):
                declared.update(scoped.names)
        if not is_generator or not declared:
            return
        for scoped in _scope_nodes(node.body):
            flagged: Optional[str] = None
            if isinstance(scoped, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    scoped.targets
                    if isinstance(scoped, ast.Assign)
                    else [scoped.target]
                )
                for target in targets:
                    root = _root_name(target)
                    if root in declared:
                        flagged = f"assignment to {root!r}"
                        break
            elif (
                isinstance(scoped, ast.Call)
                and isinstance(scoped.func, ast.Attribute)
                and scoped.func.attr in _MUTATING_METHODS
            ):
                root = _root_name(scoped.func.value)
                if root in declared:
                    flagged = f"{root}.{scoped.func.attr}(...)"
            if flagged is not None:
                self.report.add(
                    "TNG042",
                    Severity.ERROR,
                    f"generator {node.name}() mutates shared state "
                    f"({flagged}) outside the event queue",
                    location=self._at(scoped),
                    hint="yield the update to the driver (the event queue "
                    "orders it) instead of writing shared state directly",
                )

    # -- TNG043: object-identity ordering ------------------------------------
    def _check_identity_ordering(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        callee = dotted.split(".")[-1] if dotted is not None else None
        if callee not in _ORDERING_CALLS:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            uses_id = (
                isinstance(keyword.value, ast.Name) and keyword.value.id == "id"
            ) or (
                isinstance(keyword.value, ast.Lambda)
                and any(_is_id_call(n) for n in ast.walk(keyword.value.body))
            )
            if uses_id:
                self.report.add(
                    "TNG043",
                    Severity.ERROR,
                    f"id() used as the sort key of {callee}()",
                    location=self._at(keyword.value),
                    hint="order by a stable attribute (name, sequence, "
                    "time) -- object ids change run to run",
                )

    def visit_Compare(self, node: ast.Compare) -> None:
        ordering_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        operands = [node.left] + list(node.comparators)
        if any(isinstance(op, ordering_ops) for op in node.ops) and any(
            _is_id_call(operand) for operand in operands
        ):
            self.report.add(
                "TNG043",
                Severity.ERROR,
                "ordering comparison on id() values",
                location=self._at(node),
                hint="order by a stable attribute (name, sequence, time) "
                "-- object ids change run to run",
            )
        self.generic_visit(node)

    # -- TNG030 / TNG031: calls and imports --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_identity_ordering(node)
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) >= 2
                and (parts[-2], parts[-1]) in _WALL_CLOCK_CALLS
                and not self._allowed(WALL_CLOCK_ALLOWED)
            ):
                self.report.add(
                    "TNG030",
                    Severity.ERROR,
                    f"wall-clock call {dotted}() in simulator code",
                    location=self._at(node),
                    hint="read a repro.sim.clock.VirtualClock instead",
                )
            if (
                len(parts) >= 2
                and "random" in parts[:-1]
                and not self._allowed(RANDOM_ALLOWED)
            ):
                self.report.add(
                    "TNG031",
                    Severity.ERROR,
                    f"module-level randomness {dotted}() outside sim/rng.py",
                    location=self._at(node),
                    hint="draw from a SeededRng stream (sim/rng.py)",
                )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random" and not self._allowed(RANDOM_ALLOWED):
                self.report.add(
                    "TNG031",
                    Severity.ERROR,
                    "import of the stdlib random module outside sim/rng.py",
                    location=self._at(node),
                    hint="derive a SeededRng child stream instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None:
            root = node.module.split(".")[0]
            if root == "random" and not self._allowed(RANDOM_ALLOWED):
                self.report.add(
                    "TNG031",
                    Severity.ERROR,
                    "from random import ... outside sim/rng.py",
                    location=self._at(node),
                    hint="derive a SeededRng child stream instead",
                )
        self.generic_visit(node)

    # -- TNG032: unordered iteration ----------------------------------------
    def _is_set_expression(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            return name in _SET_CONSTRUCTORS
        return False

    def _flag_unordered(self, iterable: ast.AST) -> None:
        if self._is_set_expression(iterable):
            self.report.add(
                "TNG032",
                Severity.ERROR,
                "iteration directly over a set; ordering is process-salted",
                location=self._at(iterable),
                hint="wrap the set in sorted(...) before iterating",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_unordered(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators) -> None:
        for comp in generators:
            self._flag_unordered(comp.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    # -- TNG033: mutable defaults --------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if not mutable and isinstance(default, ast.Call):
                name = _dotted(default.func)
                mutable = name in _MUTABLE_CONSTRUCTORS
            if mutable:
                self.report.add(
                    "TNG033",
                    Severity.ERROR,
                    f"mutable default argument in {node.name}()",
                    location=self._at(default),
                    hint="default to None and create the object inside "
                    "the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_generator_mutation(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_generator_mutation(node)
        self.generic_visit(node)

    # -- TNG035: swallowed exceptions ----------------------------------------
    @staticmethod
    def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:  # bare except:
            return True
        names = []
        if isinstance(handler.type, ast.Tuple):
            names = [_dotted(element) for element in handler.type.elts]
        else:
            names = [_dotted(handler.type)]
        return any(name in _BROAD_EXCEPTIONS for name in names)

    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            if not self._is_broad_handler(handler):
                continue
            if any(isinstance(n, ast.Raise) for stmt in handler.body for n in ast.walk(stmt)):
                continue
            caught = "bare except" if handler.type is None else (
                f"except {_dotted(handler.type) or '(...)'}"
            )
            self.report.add(
                "TNG035",
                Severity.ERROR,
                f"{caught} swallows the exception (no raise in handler)",
                location=self._at(handler),
                hint="catch the specific fault types (e.g. "
                "repro.faults.retry.TRANSIENT_FAULTS) or re-raise",
            )
        self.generic_visit(node)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number -> codes suppressed there via ``tango-lint: disable``."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            codes = {code.strip() for code in match.group(1).split(",")}
            table[lineno] = {code for code in codes if code}
    return table


def _finding_line(location: str, relpath: str) -> Optional[int]:
    """The line number of a ``relpath:line`` location; None otherwise."""
    prefix = f"{relpath}:"
    if not location.startswith(prefix):
        return None
    try:
        return int(location[len(prefix):])
    except ValueError:
        return None


def lint_source(
    source: str, relpath: str, report: Optional[DiagnosticReport] = None
) -> DiagnosticReport:
    """Lint one module's source text (``relpath`` is package-relative).

    Findings on lines carrying a ``# tango-lint: disable=TNG0xx``
    comment naming the finding's code are dropped.
    """
    report = report if report is not None else DiagnosticReport()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        line = exc.lineno if exc.lineno is not None else 1
        report.add(
            "TNG034",
            Severity.ERROR,
            f"cannot parse file: {exc.msg}",
            location=f"{relpath}:{line}",
            hint="fix the syntax error; nothing else in this file was checked",
        )
        return report
    relpath = relpath.replace("\\", "/")
    local = DiagnosticReport()
    _DeterminismVisitor(relpath, local).visit(tree)
    suppressed = _suppressions(source)
    for diagnostic in local:
        line = _finding_line(diagnostic.location, relpath)
        if line is not None and diagnostic.code in suppressed.get(line, ()):
            continue
        report.extend([diagnostic])
    return report


def _package_relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(targets: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(
    targets: Sequence[str], report: Optional[DiagnosticReport] = None
) -> DiagnosticReport:
    """Lint every python file under the given files/directories.

    Rule allowlists (``sim/``, ``sim/rng.py``) are matched against paths
    relative to each target directory, so both ``src/repro`` and a
    package checkout root work.
    """
    report = report if report is not None else DiagnosticReport()
    for target in targets:
        root = Path(target) if Path(target).is_dir() else Path(target).parent
        for path in iter_python_files([target]):
            relpath = _package_relative(path, root)
            lint_source(
                path.read_text(encoding="utf-8", errors="replace"),
                relpath,
                report,
            )
    return report


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="tango-lint",
        description="Determinism linter for the Tango reproduction sources.",
    )
    parser.add_argument(
        "targets", nargs="+", help="python files or package directories to lint"
    )
    parser.add_argument(
        "--warnings-as-errors",
        action="store_true",
        help="exit non-zero on WARNING diagnostics too",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable text (default) or one JSON object",
    )
    args = parser.parse_args(argv)
    for target in args.targets:
        if not Path(target).exists():
            parser.error(f"no such file or directory: {target}")

    report = lint_paths(args.targets)
    errors = report.errors()
    warnings = report.warnings()
    files = len(iter_python_files(args.targets))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "files": files,
                    "errors": len(errors),
                    "warnings": len(warnings),
                    "diagnostics": report.to_dicts(),
                },
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        if len(report):
            print(report.format(), file=out)
        print(
            f"tango-lint: {len(errors)} error(s), {len(warnings)} warning(s) in "
            f"{files} file(s)",
            file=out,
        )
    # Stable exit codes: 0 clean, 1 findings, 2 usage (argparse errors
    # exit 2 via parser.error above).
    if errors or (args.warnings_as_errors and warnings):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
