"""Source hygiene checks that need no linter: the standard library's ast only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "groupwalk"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _stale_imports(source):
    """The names a module imports but neither reads nor lists in __all__,
    with the line of each import (`from __future__` imports excepted)."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_the_stale_import_check_sees_unused_and_exported_names():
    source = "from os import path, sep, getcwd\nimport json\n__all__ = ['sep']\nprint(getcwd())\n"
    assert _stale_imports(source) == [(1, "path"), (2, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _stale_imports(path.read_text(encoding="utf-8")) == []


def _redundant_local_imports(source):
    """The sibling modules that a function imports from although its file
    already imports from them at top level, with the line of each local
    import.  A local import from a module the file does not import at top
    level breaks an import cycle and is not one."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    local = {node for func in functions for node in ast.walk(func) if isinstance(node, ast.ImportFrom) and node.level}
    return sorted((node.lineno, node.module) for node in local if node.module in top)


def test_the_local_import_check_sees_only_modules_imported_at_top_level():
    source = (
        "from .groups import a\nimport os\n"
        "def f():\n    from .groups import b\n    from .operators import c\n    import os\n    return a, b, c, os\n"
    )
    assert _redundant_local_imports(source) == [(4, "groups")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_imports_from_a_module_its_file_imports_at_top_level(path):
    assert _redundant_local_imports(path.read_text(encoding="utf-8")) == []
