"""Source checks on the package modules.

Every exact check has to survive ``python -O``, which strips ``assert``
statements, so the package raises explicitly instead.  A module-level
import that nothing in its module reads is dead code, and so is a
module-level function or class that nothing else in the package reads
and ``__init__.py`` does not re-export.  ``__init__.py`` is skipped by
the per-module checks: its imports are re-exports, the package's public
API.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "extremal_lie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_imports(body):
    """(bound name, line) of every import outside function and class
    bodies, including those under a module-level try or if."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.Try, ast.If)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _module_imports(block)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
