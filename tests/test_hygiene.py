"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "convval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source):
    """Names bound by module-level `from ... import` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = "from a import b, c as d\nfrom e import f\n\ndef g():\n    return d.x + f\n"
    assert unused_from_imports(source) == [(1, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text(encoding="utf-8")) == []
