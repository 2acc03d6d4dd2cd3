"""Doc-drift guard: the docs must keep up with the public surface.

Five invariants, all cheap and purely static:

* every public *package* under ``src/repro`` has an API.md heading that
  names it (``## ... `repro.x` ...``), so a new subsystem cannot land
  without a reference section;
* every public *module* is reachable from API.md — either its dotted
  path appears verbatim, or at least one public top-level name it
  defines does (word-boundary match), so a module cannot drift into
  being entirely undocumented;
* every ``--flag`` on a ``tango-probe`` / ``tango-serve`` /
  ``tango-report`` command line in README.md, OPERATIONS.md and API.md
  is one that script's parser defines, so a removed option cannot
  linger in a documented command;
* every documented ``tango-report`` line names one of its subcommands
  (OPERATIONS.md's migration section, which lists the old commands,
  aside);
* no doc, workflow or source file names a removed tool or class
  (``tango-trace``, ``tango-telemetry``, ``DriftFeed``), outside
  OPERATIONS.md's migration section.

CI runs this file as the doc-drift check.
"""

import ast
import re
from pathlib import Path

from repro.serve.cli import _build_parser as serve_parser
from repro.tools.cli import _build_parser as probe_parser
from repro.tools.report import _build_parser as report_parser

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
API = (REPO / "API.md").read_text(encoding="utf-8")
API_HEADINGS = [line for line in API.splitlines() if line.startswith("#")]


def _packages():
    for init in sorted(SRC.rglob("__init__.py")):
        package = init.parent.relative_to(SRC.parent)
        if len(package.parts) == 1:
            continue  # the root namespace is the whole document
        yield ".".join(package.parts)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if path.name.startswith("_"):
            continue
        module = path.relative_to(SRC.parent).with_suffix("")
        yield ".".join(module.parts), path


def _public_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_every_package_has_an_api_heading():
    missing = [
        package
        for package in _packages()
        if not any(f"`{package}`" in heading for heading in API_HEADINGS)
    ]
    assert not missing, (
        "packages without an API.md heading (add a `## ... — `<package>`` "
        f"section): {missing}"
    )


def test_every_module_is_reachable_from_api_md():
    undocumented = []
    for module, path in _modules():
        if module in API:
            continue
        names = _public_names(path)
        if any(re.search(rf"\b{re.escape(name)}\b", API) for name in sorted(names)):
            continue
        undocumented.append((module, sorted(names)[:5]))
    assert not undocumented, (
        "modules with no API.md mention (neither the dotted path nor any "
        f"public name appears): {undocumented}"
    )


def test_console_scripts_are_documented():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    block = pyproject.split("[project.scripts]", 1)[1].split("[", 1)[0]
    scripts = re.findall(r"^(\S+)\s*=", block, flags=re.MULTILINE)
    assert scripts, "no console scripts found in pyproject.toml"
    missing = [script for script in scripts if f"`{script}" not in API]
    assert not missing, f"console scripts absent from API.md: {missing}"


#: Documented command prefixes -> that script's argument parser.
COMMANDS = {
    "tango-probe": probe_parser,
    "python -m repro.tools.cli": probe_parser,
    "tango-serve": serve_parser,
    "python -m repro.serve.cli": serve_parser,
    "tango-report": report_parser,
    "python -m repro.tools.report": report_parser,
}
DOCS = ("README.md", "OPERATIONS.md", "API.md")
COMMAND = re.compile("|".join(re.escape(prefix) for prefix in COMMANDS))


def _options(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action.choices, dict):
            return action.choices
    return {}


def _command_lines(text):
    """Yield (prefix, words) for each documented command invocation.

    A command inside an inline code span ends with the span; one on a
    code-block line (continuations joined) ends at a comment, pipe or
    ``&&``.
    """
    for line in text.replace("\\\n", " ").splitlines():
        for match in COMMAND.finditer(line):
            rest = line[match.end():]
            if line.count("`", 0, match.start()) % 2:
                rest = rest.split("`", 1)[0]
            else:
                rest = re.split(r"\s#|\||&&", rest, maxsplit=1)[0]
            yield match.group(0), rest.split()


def test_documented_command_flags_exist():
    stale = []
    for doc in DOCS:
        text = (REPO / doc).read_text(encoding="utf-8")
        for prefix, words in _command_lines(text):
            parser = COMMANDS[prefix]()
            known = _options(parser)
            sub = _subparsers(parser).get(words[0]) if words else None
            if sub is not None:
                known |= _options(sub)
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", " ".join(words)):
                if flag not in known:
                    stale.append(f"{doc}: {prefix} {' '.join(words[:1])} {flag}")
    assert not stale, f"documented flags the parser does not define: {stale}"


#: OPERATIONS.md's old-to-new command table, which names old commands.
MIGRATION = re.compile(r"^## Migration\b.*?(?=^## |\Z)", flags=re.MULTILINE | re.DOTALL)


def test_documented_report_subcommands_exist():
    subcommands = _subparsers(report_parser())
    stale = []
    for doc in DOCS:
        text = MIGRATION.sub("", (REPO / doc).read_text(encoding="utf-8"))
        for prefix, words in _command_lines(text):
            if COMMANDS[prefix] is not report_parser or not words:
                continue
            if words[0] not in subcommands:
                stale.append(f"{doc}: {prefix} {words[0]}")
    assert not stale, f"documented tango-report subcommands that do not exist: {stale}"


#: Tools and classes that were removed; nothing may name them any more.
REMOVED = ("tango-trace", "tango-telemetry", "DriftFeed")


def test_no_doc_names_a_removed_tool():
    paths = [REPO / name for name in DOCS + ("EXPERIMENTS.md", "DESIGN.md")]
    paths.append(REPO / ".github" / "workflows" / "ci.yml")
    paths.extend(sorted(SRC.rglob("*.py")))
    found = [
        f"{path.relative_to(REPO)}: {name}"
        for path in paths
        for name in REMOVED
        if name in MIGRATION.sub("", path.read_text(encoding="utf-8"))
    ]
    assert not found, f"removed tools still named: {found}"
