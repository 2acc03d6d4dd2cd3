"""Import-layering guards over every module under ``src/repro``.

* networkx stays in offline code.  The online path (request DAG,
  schedulers, planner, serve loop) runs on plain dicts; networkx is for
  offline rule-set and topology analysis only.
* Instrumentation has one seam.  Components reach the tracer, metrics
  registry and telemetry collector only through
  :class:`repro.obs.Instruments`: outside ``repro.obs`` and the entry
  points that build sinks, no module imports the sink modules or names
  a per-sink null object.

Each module is parsed once; imports are found at any depth, including
inside functions.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Modules (relative to ``repro``) allowed to import networkx; a
#: trailing dot allows a whole package.
NETWORKX_ALLOWED = ("workloads.", "netem.topology", "core.priorities")

#: Online modules that must never import networkx directly.
NETWORKX_FORBIDDEN = ("core.requests", "core.scheduler", "core.planner", "serve.")

#: The sink modules, reachable only through ``repro.obs.Instruments``.
SINK_MODULES = ("repro.obs.trace", "repro.obs.metrics", "repro.obs.telemetry")

#: Per-sink null objects no component may name.
SINK_NULLS = frozenset(
    {
        "NULL_TRACER",
        "NULL_METRICS",
        "NULL_TELEMETRY",
        "NullTracer",
        "NullMetricsRegistry",
        "NullTelemetryCollector",
    }
)

#: ``repro.obs`` itself and the entry points that build sinks.
SINK_ALLOWED = ("obs.", "tools.cli", "serve.cli", "perf.harness")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts[-1] = ""
    return ".".join(parts)


def _matches(module: str, patterns) -> bool:
    return any(
        module.startswith(p) if p.endswith(".") else module == p for p in patterns
    )


def _modules():
    return {
        _module_name(path): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


def _imported(tree: ast.AST):
    """Every absolute module path the tree imports (``from a import b``
    yields ``a`` and ``a.b``, so submodule imports are seen too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _imports_any(tree: ast.AST, targets) -> bool:
    return any(
        name == target or name.startswith(target + ".")
        for name in _imported(tree)
        for target in targets
    )


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1]


def test_networkx_imported_only_by_offline_modules():
    offenders = [
        module
        for module, tree in _modules().items()
        if _imports_any(tree, ("networkx",)) and not _matches(module, NETWORKX_ALLOWED)
    ]
    assert offenders == [], f"networkx imported outside offline code: {offenders}"


def test_online_modules_are_scanned_and_networkx_free():
    modules = _modules()
    for pattern in NETWORKX_FORBIDDEN:
        scanned = [m for m in modules if _matches(m, (pattern,))]
        assert scanned, f"no module matches {pattern!r}; update the guard"
        assert not any(_imports_any(modules[m], ("networkx",)) for m in scanned), pattern
        assert not _matches(pattern.rstrip("."), NETWORKX_ALLOWED)


def test_components_reach_sinks_only_through_instruments():
    modules = _modules()
    for allowed in SINK_ALLOWED:
        assert any(_matches(m, (allowed,)) for m in modules), allowed
    importers = []
    null_users = []
    for module, tree in modules.items():
        if _matches(module, SINK_ALLOWED):
            continue
        if _imports_any(tree, SINK_MODULES):
            importers.append(module)
        named = SINK_NULLS.intersection(_names(tree))
        if named:
            null_users.append((module, sorted(named)))
    assert importers == [], f"sink modules imported outside repro.obs: {importers}"
    assert null_users == [], f"per-sink nulls named outside repro.obs: {null_users}"
