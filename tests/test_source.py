"""Checks on the source text of the package itself, and that the
production drivers enter every public member of the library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import io
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tightspan
from test_caches import clear_caches
from tightspan import ClosureSystem, GroundSet, ganter_hasse
from tightspan.cli import main

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
    """Public top-level functions and classes of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def names_read(source: str) -> set[str]:
    """Names a source reads: as a bare name, as an attribute, or as a
    string (an attribute looked up by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_public_names(modules: dict[str, str], drivers: list[str]) -> list[str]:
    """Public top-level definitions of ``modules`` (name -> source) that
    neither the modules nor the drivers read in any way, not even the
    module defining them: names kept for the tests alone.  The members of
    classes are checked by running the drivers instead (below)."""
    read = set()
    for text in [*modules.values(), *drivers]:
        read |= names_read(text)
    return [
        f"{name}: {definition}"
        for name, source in modules.items()
        for definition in public_definitions(source)
        if definition not in read
    ]


def test_the_check_sees_a_name_only_tests_read():
    lib = "def used(): pass\ndef unused(): used()\nclass C:\n    def m(self): pass\n"
    assert unread_public_names({"lib.py": lib}, []) == ["lib.py: unused", "lib.py: C"]
    assert unread_public_names({"lib.py": lib}, ["unused(); x.m()\n"]) == ["lib.py: C"]
    assert unread_public_names({"lib.py": lib}, ["getattr(lib, 'C')\n"]) == ["lib.py: unused"]
    assert unread_public_names({"lib.py": "def _private(): pass\n"}, []) == []


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {p.name: p.read_text() for p in PRODUCTION}
    assert unread_public_names(modules, [p.read_text() for p in DRIVERS]) == []


# -- every public member runs in production ------------------------------------

def public_members(module) -> dict[str, types.CodeType]:
    """The public functions of a module and the public methods and
    properties of its classes (as ``Class.member``), each by the code that
    a call enters: a cached, static or class method's wrapped function, a
    property's getter.  Names bound from other modules are left to those."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{a}", m) for a, m in vars(obj).items() if not a.startswith("_")]
        for qualified, member in members:
            if isinstance(member, property):
                member = member.fget
            func = inspect.unwrap(getattr(member, "__func__", member))
            if inspect.isfunction(func):
                out[qualified] = func.__code__
    return out


def entered_code(drive) -> set[types.CodeType]:
    """The code of every function that ``drive()`` enters in this thread."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drive()
    finally:
        sys.setprofile(previous)
    return entered


def unentered_members(modules, entered: set[types.CodeType]) -> list[str]:
    return [
        f"{module.__name__}: {qualified}"
        for module in modules
        for qualified, code in public_members(module).items()
        if code not in entered
    ]


def test_the_check_sees_a_member_no_driver_enters():
    lib = types.ModuleType("lib")
    source = """
import functools

def used():
    return C().p

def unused():
    pass

@functools.lru_cache(maxsize=1)
def cached():
    pass

class C:
    @property
    def p(self):
        return 1

    @staticmethod
    def s():
        pass

    def m(self):
        pass

    def _private(self):
        pass
"""
    exec(source, vars(lib))
    entered = entered_code(lambda: (lib.used(), lib.C.s()))
    assert unentered_members([lib], entered) == ["lib: unused", "lib: cached", "lib: C.m"]
    # a cache hit enters nothing: only a cleared cache shows its function
    lib.cached()
    assert unentered_members([lib], entered_code(lib.cached)) == [
        "lib: used", "lib: unused", "lib: cached", "lib: C.p", "lib: C.s", "lib: C.m"
    ]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run_the_drivers(files: dict, out: Path) -> None:
    """Every production driver, in this process: each subcommand and format
    of the command line on its fixtures, ``fvector-scan`` under both lifts
    and with ``--jobs 2``, both scripts, and ``ganter_hasse`` on a plain
    closure system, as the boolean-lattice benchmark calls it."""
    f = files
    graphs, reports = ("json", "dot", "pretty"), ("json", "pretty")
    scan = ["fvector-scan", f["census42.txt"], "--n", "4", "--r", "2"]
    commands = [
        *(["face-lattice", f["square.json"], "--format", fmt, "--encoding", enc]
          for fmt in graphs for enc in ("vertex", "facet")),
        *(["fan-lattice", f["fan.json"], "--format", fmt] for fmt in graphs),
        *(["flats", f["u24.json"], "--format", fmt] for fmt in graphs),
        ["subdivide", f["d24.json"], f["h_oct.json"]],
        ["subdivide", f["square.json"], f["h_sq.json"]],
        *(["tightspan", f["d24.json"], f["h_oct.json"], "--gamma", gamma]
          for gamma in ("all", "loops", "none")),
        ["tightspan", f["fig1.json"], f["fig1h.json"], "--quotient", "off"],
        *(["tls", f["u24.json"], f["v34.json"], "--format", fmt] for fmt in reports),
        *(["bergman", f["u24.json"], "--format", fmt] for fmt in reports),
        ["corank-lift", f["u1212.json"], "--emit-uniform", str(out / "u.json")],
        *(scan + ["--lift", lift, "--format", fmt]
          for lift in ("trivial", "corank") for fmt in reports),
        scan + ["--lift", "corank", "--jobs", "2"],
    ]
    census = str(ROOT / "data" / "census" / "census_n4_r2.txt")
    with redirect_stdout(io.StringIO()):
        for argv in commands:
            assert main(argv) == 0, argv
        assert load_script("survey_bounded_fvectors").main([census]) == 0
    load_script("make_mini_census").census_texts()
    ganter_hasse(ClosureSystem(GroundSet(4), lambda subset: subset))


def test_every_public_member_runs_in_production(files, tmp_path):
    # a member that no driver enters is kept for the tests alone
    modules = [importlib.import_module(f"tightspan.{p.stem}") for p in PRODUCTION
               if p.name != "__main__.py"]
    clear_caches()  # a cache hit would not enter the function it keeps
    entered = entered_code(lambda: run_the_drivers(files, tmp_path))
    assert unentered_members(modules, entered) == []
