"""Source checks on the package modules.

Every exact check has to survive ``python -O``, which strips ``assert``
statements, so the package raises explicitly instead.  A module-level
import that nothing in its module reads is dead code, in the package
and in its tests, and so is a module-level function or class that
nothing else in the package reads and ``__init__.py`` does not
re-export.  ``__init__.py`` is skipped by the per-module checks: its
imports are re-exports, the package's public API.  A backticked name
in a docstring or comment that the package no longer defines is a
stale reference.
"""

import ast
import keyword
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremal_lie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _import_nodes(body):
    """Every import statement outside function and class bodies,
    including those under a module-level try or if."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.Try, ast.If)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _import_nodes(block)


def _module_imports(body):
    """(bound name, line) of every module-level import."""
    for node in _import_nodes(body):
        for alias in node.names:
            name = alias.name
            if isinstance(node, ast.Import):
                name = name.split(".")[0]
            yield alias.asname or name, node.lineno


def test_only_standard_library_imports():
    """The package runs on the standard library alone: every
    module-level import, even one under try, is of a standard-library
    module or of the package itself."""
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _import_nodes(_tree(path).body):
            if isinstance(node, ast.ImportFrom):
                if node.level:  # relative: the package itself
                    continue
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != PACKAGE.name]
    assert not outside, f"imports outside the standard library: {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})"
              for name, line in _module_imports(tree.body)
              if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"


def _reads(node):
    """Names read under `node`, as variables or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_protocol(node):
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(base).split(".")[-1] == "Protocol"
        for base in node.bases)


def test_every_module_level_definition_is_used():
    """Every module-level function or class is read somewhere in the
    package outside its own body, or re-exported from ``__init__``.
    `typing.Protocol` classes document an interface and are exempt."""
    init = _tree(PACKAGE / "__init__.py")
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {path.name: _tree(path) for path in MODULES}
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    dead = [f"{name}:{node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not _is_protocol(node) and node.name not in exported
            and reads[node.name] == Counter(_reads(node))[node.name]]
    assert not dead, f"unused module-level definitions: {dead}"


#: a name in single backticks, `name` or `mod.name`; ``literals`` are not
_TICKED = re.compile(r"(?<!`)`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`(?!`)")


def _bound_names(tree):
    """Every name the module binds: definitions, parameters, assignment
    targets (attributes too) and imports, with the dotted parts of an
    imported module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
                if alias.asname:
                    yield alias.asname
            if isinstance(node, ast.ImportFrom) and node.module:
                yield from node.module.split(".")


def _subcommands(tree):
    """The CLI subcommand names: the first argument of each
    ``add_parser`` call."""
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"}


def _prose(path, tree):
    """(line, text) of every docstring and comment of a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    with path.open() as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string


def test_backticked_names_exist():
    """Every `name` or `mod.name` in a docstring or comment of the
    package names something the package defines or imports (each
    dotted part), a module of the package, a keyword or a CLI
    subcommand: a reference to code that was renamed or deleted
    fails here."""
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {path: _tree(path) for path in paths}
    known = {PACKAGE.name} | {path.stem for path in paths}
    for tree in trees.values():
        known.update(_bound_names(tree))
    known |= _subcommands(trees[PACKAGE / "cli.py"])
    stale = [f"{path.name}:{line + text[:m.start()].count(chr(10))} "
             f"{m.group(1)}"
             for path, tree in trees.items()
             for line, text in _prose(path, tree)
             for m in _TICKED.finditer(text)
             if not keyword.iskeyword(m.group(1))
             and not all(part in known for part in m.group(1).split("."))]
    assert not stale, f"backticked names that do not exist: {stale}"


def test_certify_imports_only_evaluate_monomial_from_presentation():
    """A match reads each generator product once and stores no
    structure-constant table, so `certify` takes nothing from
    `presentation` but `evaluate_monomial`, at module level or inside a
    function: a table kernel that comes back is caught here."""
    names = []
    for node in ast.walk(_tree(PACKAGE / "certify.py")):
        if isinstance(node, ast.ImportFrom) and node.module in (
                "presentation", f"{PACKAGE.name}.presentation"):
            names += [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "presentation"):
            names.append(node.attr)
    assert names == ["evaluate_monomial"], names


def test_only_realizations_names_lie_closure():
    """No command grows a realization's closure: its context is its
    classical algebra and its dimension the catalog rank.  So no module
    but `realizations`, which defines `lie_closure`, and ``__init__``,
    which exports it, names it."""
    names = sorted(path.name for path in MODULES
                   if "lie_closure" in path.read_text())
    assert names == ["realizations.py"], names
