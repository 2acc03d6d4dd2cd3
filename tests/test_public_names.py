"""Every exported name has a consumer that a real entry point reaches.

The roots are the modules behind the ``[project.scripts]`` console
scripts in ``pyproject.toml`` plus every file under ``tangobench/``,
``benchmarks/`` and ``examples/``.  From them the test walks imports
(including function-local ones), following package re-exports and
``repro.analysis``'s lazy name map, to the set of reached modules.  A
name in some module's ``__all__`` passes when a reached module uses it
(loads it by name or as a module attribute) outside the name's own
definition.  Importing or re-exporting a name is not a use, and tests
are not roots.

A name that fails either gets a root (a use in an example, a bench or
an entry point) or is deleted.  ``ALLOWLIST`` holds the exceptions,
each with a one-line reason.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_DIRS = ("tangobench", "benchmarks", "examples")

#: ``"module.name"`` -> why the name stays exported without a root.
ALLOWLIST: Dict[str, str] = {
    "repro.__version__": "package metadata, read by users and packaging tools, not by code",
}

#: What an import or a name refers to; see :func:`resolve`.
Target = Tuple[str, ...]


def entry_modules() -> List[str]:
    """Modules named by ``[project.scripts]``, read without ``tomllib``
    (Python 3.9 lacks it)."""
    modules: List[str] = []
    in_scripts = False
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_scripts = stripped == "[project.scripts]"
            continue
        match = re.match(r'^[\w-]+\s*=\s*"([\w.]+):\w+"$', stripped)
        if in_scripts and match:
            modules.append(match.group(1))
    return modules


def root_files() -> List[Path]:
    return sorted(p for d in ROOT_DIRS for p in (REPO / d).rglob("*.py"))


@lru_cache(maxsize=None)
def module_path(module: str) -> Optional[Path]:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def all_modules() -> List[str]:
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return modules


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_level(tree: ast.Module) -> Iterator[ast.AST]:
    """Nodes of ``tree`` outside any function or class body."""
    stack: List[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


@lru_cache(maxsize=None)
def top_level_defs(module: str) -> Dict[str, List[ast.AST]]:
    """Names a module binds at top level (not by import) -> defining nodes."""
    defs: Dict[str, List[ast.AST]] = {}
    path = module_path(module)
    if path is None:
        return defs
    for node in _module_level(parse(path)):
        names: List[str] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for name in names:
            defs.setdefault(name, []).append(node)
    return defs


def import_bindings(nodes: Iterable[ast.AST]) -> Iterator[Tuple[str, Target]]:
    """(bound alias, unresolved target) for the absolute repro imports
    among ``nodes``: ``("module", dotted)`` or ``("from", source, name)``.
    The tree has no relative imports."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if module_path(alias.name) is not None:
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    yield alias.asname or bound, ("module", bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if module_path(node.module) is not None:
                for alias in node.names:
                    yield alias.asname or alias.name, ("from", node.module, alias.name)


@lru_cache(maxsize=None)
def top_level_imports(module: str) -> Dict[str, Target]:
    path = module_path(module)
    if path is None:
        return {}
    return dict(import_bindings(_module_level(parse(path))))


@lru_cache(maxsize=None)
def lazy_names(module: str) -> Dict[str, str]:
    """A package's ``_LAZY`` map: name -> submodule served by ``__getattr__``."""
    for node in top_level_defs(module).get("_LAZY", ()):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            return {k.value: v.value for k, v in zip(node.value.keys, node.value.values)}
    return {}


def exports(module: str) -> List[str]:
    for node in top_level_defs(module).get("__all__", ()):
        if isinstance(node, ast.Assign):
            return [elt.value for elt in node.value.elts]
    return []


def resolve(
    module: str, name: str, seen: Optional[Set[Tuple[str, str]]] = None
) -> Optional[Target]:
    """Where ``module.name`` is defined, following re-exports:
    ``("name", defining module, name)`` or ``("module", dotted)``."""
    seen = set() if seen is None else seen
    if module_path(module) is None or (module, name) in seen:
        return None
    seen.add((module, name))
    if name in top_level_defs(module):
        return ("name", module, name)
    bound = top_level_imports(module).get(name)
    if bound is not None:
        return bound if bound[0] == "module" else resolve(bound[1], bound[2], seen)
    if name in lazy_names(module):
        return resolve(f"{module}.{lazy_names(module)[name]}", name, seen)
    if module_path(f"{module}.{name}") is not None:
        return ("module", f"{module}.{name}")
    return None


def _binding_target(target: Target) -> Optional[Target]:
    return resolve(target[1], target[2]) if target[0] == "from" else target


def _packages_and_self(module: str) -> Iterator[str]:
    """``module`` and its parent packages: what importing it executes."""
    parts = module.split(".")
    for i in range(1, len(parts) + 1):
        if module_path(".".join(parts[:i])) is not None:
            yield ".".join(parts[:i])


def imported_modules(tree: ast.AST) -> Iterator[str]:
    """Every repro module an import anywhere in ``tree`` executes, with
    ``importlib.import_module("literal")`` counted as an import."""
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            for _, bound in import_bindings([node]):
                target = _binding_target(bound)
                names += [bound[1]] + ([target[1]] if target is not None else [])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names = [node.args[0].value]
        for name in names:
            yield from _packages_and_self(name)


@lru_cache(maxsize=None)
def reached_modules() -> Set[str]:
    reached = {found for m in entry_modules() for found in _packages_and_self(m)}
    queue = root_files() + [module_path(m) for m in reached]
    while queue:
        for found in imported_modules(parse(queue.pop())):
            if found not in reached:
                reached.add(found)
                queue.append(module_path(found))
    return reached


def _dotted(node: ast.AST) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def uses(tree: ast.AST, module: Optional[str]) -> Set[Tuple[str, str]]:
    """(defining module, name) pairs that ``tree`` loads.

    ``module`` is the tree's own module (``None`` for a root file); a
    load of one of its own top-level names counts unless it sits inside
    that name's definition.
    """
    bindings = {
        alias: target
        for alias, bound in import_bindings(ast.walk(tree))
        for target in [_binding_target(bound)]
        if target is not None
    }
    own = top_level_defs(module) if module is not None else {}
    inside: Dict[int, Set[str]] = {}
    for name, nodes in own.items():
        for definition in nodes:
            for sub in ast.walk(definition):
                inside.setdefault(id(sub), set()).add(name)
    used: Set[Tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own and module is not None:
                if node.id not in inside.get(id(node), ()):
                    used.add((module, node.id))
                continue
            target = bindings.get(node.id)
            if target is not None and target[0] == "name":
                used.add((target[1], target[2]))
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is None or bindings.get(chain[0], ("",))[0] != "module":
                continue
            current = bindings[chain[0]][1]
            for attr in chain[1:]:
                target = resolve(current, attr)
                if target is None:
                    break
                if target[0] == "name":
                    used.add((target[1], target[2]))
                    break
                current = target[1]
    return used


@lru_cache(maxsize=None)
def unreached_exports() -> Dict[str, str]:
    """``"module.name"`` -> defining location, for every export no
    reached module uses."""
    reached = reached_modules()
    used: Set[Tuple[str, str]] = set()
    for path in root_files():
        used |= uses(parse(path), None)
    for module in reached:
        used |= uses(parse(module_path(module)), module)
    missing: Dict[str, str] = {}
    for module in all_modules():
        for name in exports(module):
            target = resolve(module, name)
            assert target is not None, f"{module}.__all__ names undefined {name!r}"
            if target[0] == "name" and (target[1], target[2]) not in used:
                missing[f"{module}.{name}"] = f"{target[1]}.{target[2]}"
    return missing


def test_roots_are_the_six_console_scripts_and_the_root_directories():
    modules = entry_modules()
    assert len(modules) == 6
    assert all(module_path(m) is not None for m in modules)
    assert all(any((REPO / d).glob("*.py")) for d in ROOT_DIRS)


def test_the_walk_follows_re_exports_lazy_names_and_local_imports():
    assert resolve("repro.core", "Tango") == ("name", "repro.core.api", "Tango")
    assert resolve("repro.analysis", "check_races") == (
        "name", "repro.analysis.racecheck", "check_races",
    )
    tree = ast.parse("def main():\n    from repro.analysis import RaceSanitizer\n")
    assert "repro.analysis.racecheck" in set(imported_modules(tree))
    assert ("repro.analysis.racecheck", "RaceSanitizer") not in uses(tree, None)


def test_every_module_is_reached_from_a_root():
    unreached = sorted(set(all_modules()) - reached_modules())
    assert not unreached, f"modules no root imports: {unreached}"


def test_every_exported_name_is_used_from_a_root():
    missing = unreached_exports()
    unexplained = sorted(name for name in missing if name not in ALLOWLIST)
    assert not unexplained, (
        "exported names no root reaches (give each a root or delete it): "
        + ", ".join(f"{name} ({missing[name]})" for name in unexplained)
    )


def test_allowlist_entries_are_live_and_explained():
    missing = unreached_exports()
    stale = sorted(name for name in ALLOWLIST if name not in missing)
    assert not stale, f"allowlisted names that a root now uses or that are gone: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())
