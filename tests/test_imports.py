"""Every name a module of fpproj imports is used in that module, and no module asserts.

A stdlib stand-in for a linter's unused-import rule: a deletion that
leaves its import behind fails here.  __init__.py is exempt, since its
imports are the package's re-exports, and so is ``from __future__``.
``python -O`` strips assert statements, so a check the package relies
on must raise explicitly.  And __init__.py loads numpy with one BLAS
thread before anything else can load it, an order that an import sorter
would undo.  Four rules have one owner each: only pointsets.py opens a
file, and only field.py compares two ambient spaces or a dimension k or
codimension m against its range, each with one raise, and splits a row of
text into coordinates, in one place.  Every functools cache is an
lru_cache with an explicit maxsize other than None.
"""

import ast
import pathlib
import re

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


OWNERS = {"open": "pointsets.py", "ambient": "field.py", "range": "field.py", "coordinates": "field.py"}
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
RANGE_MESSAGE = re.compile(r"(\b[km]|\{what\}) = \{[^}]*\} out of range|--m must be")


def _named(node, names) -> bool:
    return getattr(node, "id", None) in names or getattr(node, "attr", None) in names


def _owned_rules(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(rule, node) of each file access, ambient comparison or mismatch raise, k/m range comparison or raise,
    and split of a text (not a string literal) at ','."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) in FILE_METHODS
        ):
            found.append(("open", node))
        elif isinstance(node, ast.Call) and ast.unparse(node).endswith(".split(',')"):
            if not isinstance(node.func.value, ast.Constant):
                found.append(("coordinates", node))
        elif isinstance(node, ast.Raise) and "ambient mismatch" in ast.unparse(node):
            found.append(("ambient", node))
        elif isinstance(node, ast.Raise) and RANGE_MESSAGE.search(ast.unparse(node)):
            found.append(("range", node))
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.NotEq):
            if any(_named(operand, {"ambient"}) for operand in (node.left, *node.comparators)):
                found.append(("ambient", node))
        elif isinstance(node, ast.Compare) and len(node.ops) == 2 and _named(node.comparators[0], {"k", "m", "file_m"}):
            found.append(("range", node))
    return found


def test_each_rule_has_one_owner():
    found = {path.name: _owned_rules(ast.parse(path.read_text(encoding="utf-8"))) for path in PACKAGE}
    strays = [(name, rule, node.lineno) for name, rules in found.items() for rule, node in rules if OWNERS[rule] != name]
    assert strays == []
    raises = sorted(rule for rule, node in found["field.py"] if isinstance(node, ast.Raise))
    assert raises == ["ambient", "range"]
    assert [rule for rule, _ in found["field.py"]].count("coordinates") == 1


def test_a_rule_outside_its_owner_is_found():
    source = (
        "def f(path, E, W, m, n):\n"
        "    with open(path) as fh:\n"
        "        text = fh.read() + path.read_text()\n"
        "    if E.ambient != W.ambient:\n"
        "        raise ValueError('ambient mismatch')\n"
        "    if not 1 <= m <= n - 1:\n"
        "        raise ValueError(f'codimension m = {m} out of range [1, {n - 1}]')\n"
        "    if 0 <= n < 10:\n"
        "        raise ValueError(f'rows of rank {n}, expected n - m = {m}')\n"
        "    coords = [int(c) % n for c in text.split(',')] + 'p,n'.split(',') + text.split(';')\n"
        "    return read_text(path), coords\n"
    )
    found = [(rule, node.lineno) for rule, node in _owned_rules(ast.parse(source))]
    assert sorted(found) == [
        ("ambient", 4), ("ambient", 5), ("coordinates", 10), ("open", 2), ("open", 3), ("range", 6), ("range", 7)
    ]


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of each functools cache that is not lru_cache(maxsize=...) with a maxsize other than None."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }

    def kind(node):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            return node.attr
        return imported.get(getattr(node, "id", None))

    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache"
        for keyword in node.keywords
        if keyword.arg == "maxsize" and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is None)
    }
    return sorted(
        node.lineno for node in ast.walk(tree) if kind(node) in ("lru_cache", "cache") and id(node) not in bounded
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_lru_cache_has_an_explicit_bound(path):
    assert _unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unbounded_cache_is_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as memo\n"
        "@memo\n"
        "def a(): pass\n"
        "@memo()\n"
        "def b(): pass\n"
        "@memo(maxsize=None)\n"
        "def c(): pass\n"
        "@functools.lru_cache(64)\n"
        "def d(): pass\n"
        "@cache\n"
        "def e(): pass\n"
        "@memo(maxsize=SIZE)\n"
        "def f(cache): return functools.lru_cache(maxsize=8)(f)\n"
    )
    assert _unbounded_caches(ast.parse(source)) == [3, 5, 7, 9, 11]
