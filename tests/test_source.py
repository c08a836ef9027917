"""Checks on the library source itself."""

import ast
from functools import cache
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


@cache
def _top_level_imports():
    """Module name -> the sibling modules its top-level statements import."""
    return {path.stem: set().union(*map(_relative_modules, ast.parse(
        path.read_text(), filename=str(path)).body)) for path in SRC}


def _reaches(graph, start, goal):
    """Whether ``goal`` is reachable from ``start`` along ``graph``."""
    seen, stack = set(), [start]
    while stack:
        name = stack.pop()
        if name == goal:
            return True
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return False


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    """A function-local relative import is only there to break an import
    cycle: the module it imports must reach this one through top-level
    relative imports, and this one must not already import it at the top."""
    tree = ast.parse(path.read_text(), filename=str(path))
    graph = _top_level_imports()
    top = graph[path.stem]
    lines = [node.lineno for node in ast.walk(tree)
             if node not in tree.body and any(
                 name in top or not _reaches(graph, name, path.stem)
                 for name in _relative_modules(node))]
    assert not lines, \
        f"{path.name}: local imports that break no cycle at lines {sorted(lines)}"


def _traced_names():
    """The parts of the dotted names in ``spans.TRACED``: the tracer binds
    each of them by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    return {part for _, attr, _ in traced for part in attr.split(".")}


def _stored_names(tree):
    """Names assigned as data: attribute targets (``self.x = ...``) and the
    fields a class body declares or assigns."""
    out = {node.attr for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            out |= {t.id for stmt in cls.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for t in (stmt.targets if isinstance(stmt, ast.Assign)
                              else [stmt.target])
                    if isinstance(t, ast.Name)}
    return out


def _plain_methods(tree):
    """The methods of the classes in tree that are not properties."""
    return {node.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not any(getattr(d, "id", getattr(d, "attr", None))
                        in ("property", "cached_property")
                        for d in node.decorator_list)}


def test_every_definition_is_used():
    """Each function, class and method of the library is referenced in the
    code of the library or the benchmark: by a name, an attribute or an
    import, or by a dotted name in ``spans.TRACED``.  Words in docstrings and
    comments do not count.  A method that is not a property, named like a
    data attribute assigned somewhere (``HullSide.scale``), counts only
    through a call ``.name(...)``, an import or ``spans.TRACED``: reading
    the data attribute, or a local variable of that name, is no use of the
    method.  A definition that only tests call belongs in the tests, as a
    reference oracle."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    traced = _traced_names()
    defined, used, attrs, called = set(), set(traced), set(), set(traced)
    methods, stored = set(), set()
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text())
        stored |= _stored_names(tree)
        if path in SRC:
            methods |= _plain_methods(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
                called.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node, kinds) and path in SRC and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
    hidden = (defined & methods & stored) - called
    unused = sorted((defined - used - attrs) | hidden)
    assert not unused, f"defined but never used: {unused}"


def _function(path, name):
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _cli_verify_caps():
    """Suite name -> the cap keywords that ``cli.cmd_verify`` passes it:
    each ``caps[key] = ...`` under an ``if`` that names the suite."""
    caps = {}
    for node in ast.walk(_function(ROOT / "src" / "malcev" / "cli.py",
                                   "cmd_verify")):
        if not isinstance(node, ast.If):
            continue
        keys = {t.slice.value for stmt in node.body
                for t in getattr(stmt, "targets", ())
                if isinstance(t, ast.Subscript) and
                isinstance(t.value, ast.Name) and t.value.id == "caps"}
        for c in ast.walk(node.test):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                caps.setdefault(c.value, set()).update(keys)
    return caps


def test_verify_suites_take_only_seed_and_the_cli_caps():
    """An option of a verify suite that the CLI never sets is a constant in
    disguise."""
    path = ROOT / "src" / "malcev" / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SUITE_FUNCS"])
    suites = {k.value: v.id for k, v in zip(table.keys, table.values)}
    caps = _cli_verify_caps()
    assert caps.get("free-iso") == {"box"}
    for name, func in suites.items():
        args = _function(path, func).args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        assert params == {"seed"} | caps.get(name, set()), name


def test_linalg_calls_xgcd_only_in_hnf_and_the_smith_gcd_lcm_step():
    """The library has one integer elimination routine, ``hnf``; the Smith
    form adds only its gcd/lcm step on the diagonal."""
    path = ROOT / "src" / "malcev" / "linalg.py"
    calls = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            count = sum(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                        and c.func.id == "xgcd" for c in ast.walk(node))
            if count:
                calls[node.name] = count
    assert calls == {"hnf": 1, "snf_with_transforms": 1}
