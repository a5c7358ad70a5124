"""Source hygiene: no module of the package or of the tests imports a name it
never uses, the package exports exactly what its `__init__` imports, and no
private helper of the package is left without a reference."""

import ast
from pathlib import Path

import pytest

import convval

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "convval").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """Names bound by module-level imports, each with its import's line.

    `import a.b` binds `a`; `import a.b as c` and `from a import b as c`
    bind `c`.
    """
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return imported


def unused_imports(source):
    """Names bound by module-level imports and never referenced."""
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = (
        "import os\nimport a.b\nimport e.f as g\nfrom a import b, c as d\nfrom e import f\n\n"
        "def h():\n    return d.x + f + a.b.y\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "g"), (4, "b")]


# Package modules keep their bare file names as ids; test files are tests/<name>.
@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_exports_are_sorted_and_match_its_imports():
    source = (ROOT / "src" / "convval" / "__init__.py").read_text(encoding="utf-8")
    assert convval.__all__ == sorted(convval.__all__)
    assert set(convval.__all__) == set(imported_names(ast.parse(source)))


# Decorators that register the function they wrap, so no call site names it.
REGISTRARS = {"_check"}


def private_defs(tree):
    """Module-level private functions and private methods, each with its line;
    dunder names and functions registered by a REGISTRARS decorator are left out."""
    defs = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if not fn.name.startswith("_") or fn.name.endswith("__"):
                continue
            registered = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                             and d.func.id in REGISTRARS for d in fn.decorator_list)
            if not registered:
                defs.append((fn.lineno, fn.name))
    return defs


def referenced_names(tree):
    """Every name a module reads, reaches as an attribute or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_defs(sources):
    """(module, line, name) of each private def that no source references."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return sorted((name, line, fn) for name, tree in trees.items()
                  for line, fn in private_defs(tree) if fn not in used)


def test_dead_private_checker_sees_defs_and_uses():
    a = (
        "def _used():\n    pass\n\ndef _dead():\n    pass\n\ndef __dunder__():\n    pass\n\n"
        "@_check('x')\ndef _registered():\n    pass\n\n"
        "class C:\n    def _method(self):\n        pass\n    def _stale(self):\n        pass\n"
    )
    b = "from a import _used\n\ndef public(c):\n    return _used(), c._method()\n"
    assert dead_private_defs({"a": a, "b": b}) == [("a", 4, "_dead"), ("a", 17, "_stale")]


def test_no_dead_private_helpers_in_the_package():
    package = sorted((ROOT / "src" / "convval").glob("*.py"))
    assert dead_private_defs({p.name: p.read_text(encoding="utf-8") for p in package}) == []
