"""Every name the package exports is read by the package itself, every
check in it survives ``python -O``, and every module parses as the oldest
Python that ``pyproject.toml`` admits.

Helpers that only tests call live in ``tests/conftest.py`` as oracles.  An
exported name that no module of ``src/flaghom`` reads outside its own
definition would be one of those, and fails here.
"""

import ast
from pathlib import Path

import pytest

import flaghom

SRC = Path(__file__).parents[1] / "src" / "flaghom"


def names_read(tree):
    """Names and attribute names referenced by a module's top-level
    statements, leaving out a definition's own name inside itself."""
    read = set()
    for stmt in tree.body:
        nodes = list(ast.walk(stmt))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def test_every_export_is_read_by_another_definition():
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            read |= names_read(ast.parse(path.read_text()))
    assert sorted(set(flaghom.__all__) - read) == []


def test_only_rootsys_binds_the_size_cap():
    """The size cap is one setting, `rootsys.DEFAULT_SIZE_CAP`: no other
    module imports or assigns a name of its own for it."""
    binders = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            if "DEFAULT_SIZE_CAP" in names:
                binders.add(path.name)
    assert binders == {"rootsys.py"}


def test_no_assert_statement_in_the_package():
    """``python -O`` strips assert statements, so every check in the package
    raises AssertionError explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_module_parses_as_python_3_10():
    """``requires-python = ">=3.10"``, while the tests run on one interpreter:
    the parser's 3.10 grammar refuses newer syntax such as ``except*``."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
