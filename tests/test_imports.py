"""Every name a module of fpproj imports is used in that module, and no module asserts.

A stdlib stand-in for a linter's unused-import rule: a deletion that
leaves its import behind fails here.  __init__.py is exempt, since its
imports are the package's re-exports, and so is ``from __future__``.
``python -O`` strips assert statements, so a check the package relies
on must raise explicitly.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fpproj"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import numpy as np\nfrom .rng import TWO64, threshold_rows\nTWO64 + 1\n")
    assert _unused_imports(tree) == ["np", "threshold_rows"]


def _asserts(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_assert_statement(path):
    assert _asserts(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_assert_statement_is_found():
    tree = ast.parse("def f(x):\n    assert x, 'no x'\n    return x\nassert f(1)\n")
    assert sorted(_asserts(tree)) == [2, 4]
