"""Every source file stays within Python 3.9, the oldest supported version.

``requires-python`` is ``>=3.9``, but a newer interpreter runs the tests:
parse each file with the 3.9 grammar and reject the dataclass options
3.9 lacks (``slots=`` and ``kw_only=`` arrived in 3.10).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FILES = sorted(SRC.rglob("*.py"))

#: Keyword arguments that 3.9's dataclasses module rejects.
_NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only"}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _newer_dataclass_options(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("dataclass", "field"):
            for keyword in node.keywords:
                if keyword.arg in _NEWER_DATACLASS_KEYWORDS:
                    yield f"line {node.lineno}: {_callee(node)}({keyword.arg}=...)"


def test_every_source_file_parses_as_python39_without_newer_dataclass_options():
    assert len(FILES) > 50
    offenders = []
    for path in FILES:
        try:
            tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 9))
        except SyntaxError as error:
            offenders.append(f"{path.relative_to(SRC)}: {error}")
            continue
        offenders.extend(
            f"{path.relative_to(SRC)} {finding}" for finding in _newer_dataclass_options(tree)
        )
    assert offenders == []


def test_checker_flags_newer_dataclass_options():
    tree = ast.parse(
        "@dataclass(slots=True)\nclass A:\n    x: int = field(kw_only=True)\n",
        feature_version=(3, 9),
    )
    assert list(_newer_dataclass_options(tree)) == [
        "line 1: dataclass(slots=...)",
        "line 3: field(kw_only=...)",
    ]


def test_python310_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("match x:\n    case 1:\n        pass\n", feature_version=(3, 9))
