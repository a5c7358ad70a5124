"""Source hygiene: no module of the package or of the tests imports a name it
never uses, and the package exports exactly what its `__init__` imports."""

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
