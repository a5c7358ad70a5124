"""Source hygiene: no module of the package or of the tests imports a name it
never uses, the package exports exactly what its `__init__` imports, no
private helper of the package (nor any def of a private module such as
`_geometry.py`) is left without a reference in the package, and no public
function or method of it without one in the repository's Python sources."""

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

# Directories whose Python files may use a public def of the package.
USERS = ("src", "tests", "perfbench", "benchmarks")


def package_defs(tree):
    """Module-level functions and methods, each with its line; dunder names
    and functions registered by a REGISTRARS decorator are left out."""
    defs = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, ast.FunctionDef) or fn.name.endswith("__"):
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


def user_references(tree):
    """The names a user module references, less the ones it defines at top
    level: there it names its own function or class, not the package's."""
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return referenced_names(tree) - own


def is_private(name):
    """A leading underscore, not a dunder: `_helper`, `_geometry.py`."""
    return name.startswith("_") and not name.startswith("__")


def dead_defs(package, users=()):
    """(module, line, name) of each package def that nothing references.

    `package` maps module names to sources; `users` are more sources.  A
    private def, or any def of a private module, counts as used when a
    package source names it; a public def of a public module when a package
    source or a user source (user_references) does.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    internal = set().union(*map(referenced_names, trees.values()))
    used = internal.union(*(user_references(ast.parse(s)) for s in users))
    return sorted((name, line, fn) for name, tree in trees.items()
                  for line, fn in package_defs(tree)
                  if fn not in (internal if is_private(name) or is_private(fn) else used))


def test_dead_private_checker_sees_defs_and_uses():
    a = (
        "def _used():\n    pass\n\ndef _dead():\n    pass\n\ndef __dunder__():\n    pass\n\n"
        "@_check('x')\ndef _registered():\n    pass\n\n"
        "class C:\n    def _method(self):\n        pass\n    def _stale(self):\n        pass\n"
    )
    b = "from a import _used\n\ndef public(c):\n    return _used(), c._method()\n"
    assert dead_defs({"a": a, "b": b}) == [("a", 4, "_dead"), ("a", 17, "_stale"), ("b", 3, "public")]


def test_dead_public_checker_counts_uses_outside_the_package():
    a = (
        "def api():\n    pass\n\ndef unused():\n    pass\n\ndef _helper():\n    pass\n\n"
        "class C:\n    def method(self):\n        pass\n    def stale(self):\n        pass\n"
    )
    # A private module's public defs live only through the package: `det`,
    # which only a user calls, is dead; `kernel`, which `a` calls, is not.
    p = "def kernel():\n    pass\n\ndef det():\n    pass\n"
    a += "\ndef uses_kernel():\n    return kernel()\n"
    user = ("from a import api, _helper, uses_kernel\nfrom _p import det\n\ndef stale():\n"
            "    pass\n\napi(), _helper(), obj.method(), stale(), uses_kernel(), det()\n")
    assert dead_defs({"a": a, "_p": p}, [user]) == [
        ("_p", 4, "det"), ("a", 4, "unused"), ("a", 7, "_helper"), ("a", 13, "stale")]


def test_no_dead_defs_in_the_package():
    package = sorted((ROOT / "src" / "convval").glob("*.py"))
    users = sorted(p for d in USERS for p in (ROOT / d).rglob("*.py") if p not in package)
    assert dead_defs({p.name: p.read_text(encoding="utf-8") for p in package},
                     [p.read_text(encoding="utf-8") for p in users]) == []
