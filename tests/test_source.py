"""Checks on the source text of the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tightspan

MODULES = sorted(
    p for p in Path(tightspan.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: neither as a name, nor as the
    root of an attribute chain, nor inside a string annotation."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [
        a
        for node in ast.walk(tree)
        for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if a is not None
    ]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted = ast.parse(node.value, mode="eval")
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from math import gcd, lcm\nx = gcd(4, 6)\n") == ["lcm (line 1)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from x import T\ndef f() -> 'list[T]': pass\n") == []
    assert unused_imports("from x import T\n'T'\n") == ["T (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
