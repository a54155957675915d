"""Checks on the source text of the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tightspan

MODULES = sorted(
    p for p in Path(tightspan.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
# closure.py owns the subset encoding; oracle.py shares no logic by design
MASK_OWNERS = ("closure.py", "oracle.py")


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


def _tests_bit(node, name: str) -> bool:
    """Whether ``node`` is ``<mask> >> <shift> & 1`` with the shift reading
    the variable ``name``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.RShift)
        and any(
            isinstance(n, ast.Name) and n.id == name for n in ast.walk(node.left.right)
        )
    )


def hand_written_indices(source: str) -> list[int]:
    """Lines of comprehensions that list the elements of a mask by testing
    every position, ``... for i in range(...) if m >> i & 1``, in place of
    ``closure.indices``."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, comprehensions):
            continue
        for gen in node.generators:
            over_range = (
                isinstance(gen.iter, ast.Call)
                and isinstance(gen.iter.func, ast.Name)
                and gen.iter.func.id == "range"
                and isinstance(gen.target, ast.Name)
            )
            if over_range:
                lines += [c.lineno for c in gen.ifs if _tests_bit(c, gen.target.id)]
    return sorted(lines)


def test_the_check_sees_a_hand_written_mask_walk():
    assert hand_written_indices("[i for i in range(n) if m >> i & 1]\n") == [1]
    assert hand_written_indices("any(\n  f(j)\n  for j in range(n)\n  if m >> j & 1\n)\n") == [4]
    assert hand_written_indices("(i for i in range(n) if m >> (k + i) & 1)\n") == [1]
    assert hand_written_indices("[i for i in range(n) if m >> k & 1]\n") == []
    assert hand_written_indices("[i for i in indices(m)]\n") == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in MASK_OWNERS], ids=lambda p: p.name
)
def test_subsets_are_listed_through_closure(path):
    assert hand_written_indices(path.read_text()) == []


def unchecked_tuple_builds(source: str) -> list[int]:
    """Lines that call a ``_make`` or ``_replace``: both build a named tuple
    without calling its class, so they would skip a record's checks."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_make", "_replace")
    )


def test_the_check_sees_an_unchecked_tuple_build():
    assert unchecked_tuple_builds("m = Matroid._make(t)\nm._replace(r=2)\n") == [1, 2]
    assert unchecked_tuple_builds("Matroid(*t)\nmake(t)\nx = m._replace\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_builds_a_record_around_its_checks(path):
    assert unchecked_tuple_builds(path.read_text()) == []


# the modules the pipeline runs, and the places outside the package that drive it
PRODUCTION = [p for p in MODULES if p.name != "oracle.py"]
ROOT = Path(tightspan.__file__).parents[2]
DRIVERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes of a module, and the public
    methods of its top-level classes as ``Class.method``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, functions) and not m.name.startswith("_")
            ]
    return out


def names_read(source: str) -> tuple[set[str], set[str]]:
    """Names a source reads: as a bare name, and as an attribute or a
    string (an attribute looked up by name)."""
    bare, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return bare, attributes


def unread_public_names(modules: dict[str, str], drivers: list[str]) -> list[str]:
    """Public definitions of ``modules`` (name -> source) that neither the
    modules nor the drivers read: names kept for the tests alone.  A method
    counts as read when any attribute or string of its name is, not a bare
    name such as a local variable; a function or class counts as read when
    its name is read in any of the three ways, even if only by itself."""
    bare, attributes = set(), set()
    for text in [*modules.values(), *drivers]:
        b, a = names_read(text)
        bare |= b
        attributes |= a

    def read(qualified: str) -> bool:
        owner, _, name = qualified.rpartition(".")
        return name in attributes or (not owner and name in bare)

    return [
        f"{name}: {qualified}"
        for name, source in modules.items()
        for qualified in public_definitions(source)
        if not read(qualified)
    ]


def test_the_check_sees_a_name_only_tests_read():
    lib = "def used(): pass\ndef unused(): used()\nclass C:\n    def m(self): pass\n"
    assert unread_public_names({"lib.py": lib}, []) == [
        "lib.py: unused",
        "lib.py: C",
        "lib.py: C.m",
    ]
    assert unread_public_names({"lib.py": lib}, ["unused(); x.m()\n"]) == ["lib.py: C"]
    assert unread_public_names({"lib.py": lib}, ["getattr(lib, 'C')\n"]) == [
        "lib.py: unused",
        "lib.py: C.m",
    ]
    # a local variable named like a method does not read the method
    assert unread_public_names({"lib.py": lib}, ["m = C()\nprint(m)\n"]) == [
        "lib.py: unused",
        "lib.py: C.m",
    ]
    assert unread_public_names({"lib.py": "def _private(): pass\n"}, []) == []


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {p.name: p.read_text() for p in PRODUCTION}
    assert unread_public_names(modules, [p.read_text() for p in DRIVERS]) == []
