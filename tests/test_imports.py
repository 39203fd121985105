"""Every name a module of fpproj imports is used in that module, and no module asserts.

A stdlib stand-in for a linter's unused-import rule: a deletion that
leaves its import behind fails here.  __init__.py is exempt, since its
imports are the package's re-exports, and so is ``from __future__``.
``python -O`` strips assert statements, so a check the package relies
on must raise explicitly.  And __init__.py loads numpy with one BLAS
thread before anything else can load it, an order that an import sorter
would undo.
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


def _imports_before_blas_default(tree: ast.Module) -> list[int]:
    """Lines of package or numpy imports that run before the one-thread BLAS default.

    The default is the top-level ``if`` that sets OPENBLAS_NUM_THREADS; without
    one, every such import runs too early.
    """
    default = next(
        (node for node in tree.body if isinstance(node, ast.If) and "OPENBLAS_NUM_THREADS" in ast.unparse(node)),
        None,
    )
    end = default.lineno if default else float("inf")
    early = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            loads = node.level > 0 or (node.module or "").split(".")[0] == "numpy"
        elif isinstance(node, ast.Import):
            loads = any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        else:
            continue
        if loads and node.lineno < end:
            early.append(node.lineno)
    return sorted(early)


def test_blas_default_comes_before_any_import_that_loads_numpy():
    assert _imports_before_blas_default(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))) == []


def test_an_import_before_the_blas_default_is_found():
    default = "if 'numpy' not in sys.modules:\n    os.environ['OPENBLAS_NUM_THREADS'] = '1'\n    import numpy\n"
    tree = ast.parse("import os, sys\nfrom .budgets import BudgetError\nimport numpy.fft\n" + default)
    assert _imports_before_blas_default(tree) == [2, 3]
    assert _imports_before_blas_default(ast.parse("import os, sys\n" + default + "from . import cli\n")) == []
    assert _imports_before_blas_default(ast.parse("import os\nfrom . import cli\n")) == [2]
