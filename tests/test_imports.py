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


ROOT = SRC.parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _list_value(tree, name):
    """The value node of a module-level `name = [...]`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise LookupError(name)


def _uncalled(sources, exported, targets):
    """(module, name) of each module-level function, outside `__init__`,
    that no module of `sources` ({module: source}) reads outside the
    function's own body, that `exported` does not hold and that no
    (module, name) of `targets` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = []  # (module, name, node) of each name read as a value or an attribute
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.id, node))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.attr, node))
    uncalled = []
    for module, tree in trees.items():
        for func in tree.body if module != "__init__" else []:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = set(map(id, ast.walk(func)))
            read = any(name == func.name and not (where == module and id(node) in own) for where, name, node in reads)
            if not (read or func.name in exported or (module, func.name) in targets):
                uncalled.append((module, func.name))
    return sorted(uncalled)


def test_the_caller_check_sees_functions_only_their_own_body_reads():
    sources = {
        "a": "def called():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "def exported():\n    pass\n\ndef traced():\n    pass\n",
        "b": "from .a import called\nimport a\n\ndef user():\n    return called(), a.attribute_read()\n\n"
             "def attribute_read():\n    pass\n",
    }
    assert _uncalled(sources, {"exported"}, {("a", "traced")}) == [("a", "recursive"), ("b", "user")]


def _package():
    """The sources of src/groupwalk ({module: source}), the names in
    groupwalk.__all__ and the (module, name) pairs of bench/tracer.py's
    TARGETS."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    exported = set(ast.literal_eval(_list_value(ast.parse(sources["__init__"]), "__all__")))
    targets = set()
    for node in ast.walk(_list_value(ast.parse(TRACER.read_text(encoding="utf-8")), "TARGETS")):
        if isinstance(node, ast.Tuple) and all(isinstance(elt, ast.Constant) for elt in node.elts[:2]):
            targets.add((node.elts[0].value, node.elts[1].value))
    return sources, exported, targets


def test_every_function_in_src_has_a_caller_an_export_or_a_trace_target():
    """A function that only tests call belongs in the tests: the package,
    groupwalk.__all__ and bench/tracer.py's TARGETS are its callers."""
    assert _uncalled(*_package()) == []


def _unread_members(sources, readers, exported, targets):
    """(module, "Class.name") of each method or property, dunders aside, of a
    module-level class of `sources` ({module: source}) whose name no module
    of `sources` reads as an attribute outside the member's own body and no
    source of `readers` reads, whose class `exported` does not hold and that
    no (module, "Class.name") of `targets` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    for tree in map(ast.parse, readers):
        reads += [(node.attr, node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        reads += [(node.id, node) for node in ast.walk(tree) if isinstance(node, ast.Name)]
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exported:
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    continue
                own = set(map(id, ast.walk(member)))
                read = any(name == member.name and id(node) not in own for name, node in reads)
                if not (read or (module, f"{cls.name}.{member.name}") in targets):
                    unread.append((module, f"{cls.name}.{member.name}"))
    return sorted(unread)


def test_the_member_check_sees_methods_only_their_own_body_or_a_write_reads():
    sources = {
        "a": "class A:\n    def __init__(self):\n        self.written = 1\n\n    def read(self):\n        pass\n\n"
             "    @property\n    def recursive(self):\n        return self.recursive\n\n"
             "    def written(self):\n        pass\n\n    def traced(self):\n        pass\n\n"
             "    def demo(self):\n        pass\n\n"
             "class Exported:\n    def unread(self):\n        pass\n",
        "b": "from .a import A\n\ndef user():\n    return A().read()\n",
    }
    readers = ["from groupwalk import A\nprint(A().demo())\n"]
    assert _unread_members(sources, readers, {"Exported"}, {("a", "A.traced")}) == [
        ("a", "A.recursive"), ("a", "A.written")]


def test_every_method_in_src_has_a_reader_an_exported_class_or_a_trace_target():
    """A method or property that only tests read belongs in the tests: the
    package's attribute reads, demos/, bench/, the classes groupwalk.__all__
    exports and bench/tracer.py's TARGETS are its readers."""
    sources, exported, targets = _package()
    readers = [path.read_text(encoding="utf-8") for folder in ("demos", "bench") for path in (ROOT / folder).glob("*.py")]
    assert _unread_members(sources, readers, exported, targets) == []
