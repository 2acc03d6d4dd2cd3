"""Import-layering guard: networkx stays in offline code.

The online path (request DAG, schedulers, planner, serve loop) runs on
plain dicts; networkx is for offline rule-set and topology analysis
only.  This test parses every module under ``src/repro`` and fails on
any ``import networkx`` (at any depth, including inside functions)
outside the allowed modules.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Modules (relative to ``repro``) allowed to import networkx; a
#: trailing dot allows a whole package.
NETWORKX_ALLOWED = ("workloads.", "netem.topology", "apps.acl", "core.priorities")

#: Online modules that must never import networkx directly.
NETWORKX_FORBIDDEN = ("core.requests", "core.scheduler", "core.planner", "serve.")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts[-1] = ""
    return ".".join(parts)


def _matches(module: str, patterns) -> bool:
    return any(
        module.startswith(p) if p.endswith(".") else module == p for p in patterns
    )


def _imports_networkx(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "networkx" or name.startswith("networkx.") for name in names):
            return True
    return False


def _networkx_importers():
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules[_module_name(path)] = _imports_networkx(tree)
    return modules


def test_networkx_imported_only_by_offline_modules():
    modules = _networkx_importers()
    offenders = [
        module
        for module, imports in modules.items()
        if imports and not _matches(module, NETWORKX_ALLOWED)
    ]
    assert offenders == [], f"networkx imported outside offline code: {offenders}"


def test_online_modules_are_scanned_and_networkx_free():
    modules = _networkx_importers()
    for pattern in NETWORKX_FORBIDDEN:
        scanned = [m for m in modules if _matches(m, (pattern,))]
        assert scanned, f"no module matches {pattern!r}; update the guard"
        assert not any(modules[m] for m in scanned), pattern
        assert not _matches(pattern.rstrip("."), NETWORKX_ALLOWED)
