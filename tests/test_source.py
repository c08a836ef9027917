"""Checks on the library source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "malcev").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Library invariants raise real exceptions: ``assert`` vanishes under
    ``python -O``, and a raised ``AssertionError`` reads as a failed test
    instead of a library fault."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and any(isinstance(n, ast.Name) and n.id == "AssertionError"
                     for n in ast.walk(node.exc))]
    assert not lines, f"{path.name}: assert at lines {lines}"


def _relative_modules(node):
    """The sibling modules a ``from .X import ...`` / ``from . import X``
    statement reads."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return set()
    if node.module:
        return {node.module}
    return {alias.name for alias in node.names}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    """A function-local relative import is only there to break an import
    cycle; one from a module the file already imports at the top is noise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = set().union(*map(_relative_modules, tree.body))
    lines = [node.lineno for node in ast.walk(tree)
             if node not in tree.body and _relative_modules(node) & top]
    assert not lines, f"{path.name}: redundant local import at lines {lines}"


def test_every_definition_is_used():
    """Each function, class and method of the library is named somewhere
    in the library or the benchmark beyond its own definition; one that only
    tests call belongs in the tests, as a reference oracle."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = Counter(
        node.name for path in SRC
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__")))
    text = "\n".join(path.read_text() for path in SRC + BENCH)
    unused = sorted(name for name, n in defined.items()
                    if len(re.findall(rf"\b{name}\b", text)) <= n)
    assert not unused, f"defined but never used: {unused}"
