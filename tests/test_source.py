"""Checks on the source text of the package itself, and that the
production drivers enter every public member of the library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import io
import json
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tightspan
from test_caches import clear_caches
from tightspan import ClosureSystem, GroundSet, ganter_hasse
from tightspan.cli import main

MODULES = sorted(
    p for p in Path(tightspan.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(tightspan.__file__).parents[2]
# the package's modules, and the brute-force oracles the tests hold them to
SOURCES = MODULES + [ROOT / "tests" / "oracle.py"]


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


@pytest.mark.parametrize(
    "path",
    MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name,
)
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
    # closure.py owns the subset encoding
    "path", [p for p in MODULES if p.name != "closure.py"], ids=lambda p: p.name
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_builds_a_record_around_its_checks(path):
    assert unchecked_tuple_builds(path.read_text()) == []


def json_codec_uses(source: str, functions: tuple[str, ...], codec: str,
                    method: str) -> list[str]:
    """The function around each read of ``json.<f>`` for an f in
    ``functions``, each import of one from ``json``, and each read of the
    class ``codec`` by any path (``<module>`` outside any function); and
    each class that defines ``method``, as ``Class.<method>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ClassDef):
                found.extend(f"{child.name}.{method}" for f in child.body
                             if isinstance(f, ast.FunctionDef) and f.name == method)
            elif (isinstance(child, ast.ImportFrom)
                  and child.module in ("json", "json.encoder", "json.decoder")):
                found.extend(scope for alias in child.names
                             if alias.name in (*functions, codec))
            elif (isinstance(child, ast.Attribute) and child.attr in functions
                  and isinstance(child.value, ast.Name) and child.value.id == "json"):
                found.append(scope)
            elif codec in (getattr(child, "attr", None), getattr(child, "id", None)):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def json_writers(source: str) -> list[str]:
    """Every place a module encodes JSON: ``json.dumps``, ``json.dump``,
    ``JSONEncoder`` and ``to_json`` methods."""
    return json_codec_uses(source, ("dumps", "dump"), "JSONEncoder", "to_json")


def json_readers(source: str) -> list[str]:
    """Every place a module decodes JSON: ``json.loads``, ``json.load``,
    ``JSONDecoder`` and ``from_json`` methods."""
    return json_codec_uses(source, ("loads", "load"), "JSONDecoder", "from_json")


def test_the_check_sees_a_second_json_writer():
    source = """
import json
from json import dumps, loads

def _dumps(doc):
    return json.dumps(doc) + "\\n"

class Record:
    def to_json(self):
        return str(self)

    def as_dict(self):
        return {"text": json.loads(json.dumps(self))}

encode = json.dumps
"""
    assert json_writers(source) == [
        "<module>", "<module>", "Record.to_json", "_dumps", "as_dict"
    ]
    assert json_writers("import json\njson.loads('{}')\n") == []
    # the other encoders: json.dump, its import, and JSONEncoder by any path
    others = """
import json
from json import dump
from json.encoder import JSONEncoder

def save(doc, fh):
    json.dump(doc, fh)

def text(doc):
    return json.JSONEncoder(sort_keys=True).encode(doc)
"""
    assert json_writers(others) == ["<module>", "<module>", "save", "text"]


# the one rendering of a document, and the one quoting of a bad value in an
# input error; Valuation.to_json goes when bench/test_bench.py reads as_dict
# (ROADMAP item 1)
JSON_WRITERS = {
    "cli.py": ["_dumps", "_quoted"],
    "matroid.py": ["Valuation.to_json", "to_json"],
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_documents_are_encoded_in_one_place(path):
    assert json_writers(path.read_text()) == JSON_WRITERS.get(path.name, [])


def test_the_check_sees_a_second_json_reader():
    source = """
import json
from json import dumps, loads

def _load(text):
    return json.loads(text)

class Record:
    @staticmethod
    def from_json(text):
        return Record(text)

    def as_dict(self):
        return json.loads(json.dumps(self))

decode = json.loads
"""
    assert json_readers(source) == [
        "<module>", "<module>", "Record.from_json", "_load", "as_dict"
    ]
    assert json_readers("import json\njson.dumps({})\n") == []
    # the other decoders: json.load, its import, and JSONDecoder by any path
    others = """
import json
from json import load
from json.decoder import JSONDecoder

def read(fh):
    return json.load(fh)

def text(s):
    return json.JSONDecoder(strict=False).decode(s)
"""
    assert json_readers(others) == ["<module>", "<module>", "read", "text"]


# the one decoding of an input file: no record type reads JSON itself
JSON_READERS = {"cli.py": ["_load"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_input_files_are_decoded_in_one_place(path):
    assert json_readers(path.read_text()) == JSON_READERS.get(path.name, [])


# the places outside the package that drive it
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
    modules = {p.name: p.read_text() for p in MODULES}
    assert unread_public_names(modules, [p.read_text() for p in DRIVERS]) == []


def modules_imported(source: str) -> set[str]:
    """The modules of the package that a source imports, by name: through
    ``from .x import``, ``from . import x``, ``from tightspan.x import``,
    ``from tightspan import x`` or ``import tightspan.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("tightspan.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "tightspan":
                    continue
                module = module.partition(".")[2]
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def unimported_modules(package: dict[str, str], drivers: list[str]) -> list[str]:
    """Modules of ``package`` (name -> source), other than ``__init__`` and
    ``__main__``, that no other of its modules and no driver imports:
    modules kept for the tests alone."""
    imported = set()
    for name, source in package.items():
        imported |= modules_imported(source) - {name}
    for text in drivers:
        imported |= modules_imported(text)
    return [name for name in package
            if name not in ("__init__", "__main__") and name not in imported]


def test_the_check_sees_a_module_only_tests_import():
    package = {
        "__init__": "from .a import f\n",
        "__main__": "from .b import main\n",
        "a": "from . import c\n",
        "b": "",
        "c": "from .c import x\n",
        "d": "from .d import y\n",  # only itself
        "e": "",
    }
    assert unimported_modules(package, []) == ["d", "e"]
    assert unimported_modules(package, ["from tightspan.e import g\n"]) == ["d"]
    assert unimported_modules(package, ["import tightspan.d\nfrom tightspan import e\n"]) == []
    assert unimported_modules(package, ["from other.d import y\nimport e\n"]) == ["d", "e"]


def test_every_module_has_an_importer_outside_the_tests():
    package = {p.stem: p.read_text() for p in Path(tightspan.__file__).parent.glob("*.py")}
    assert unimported_modules(package, [p.read_text() for p in DRIVERS]) == []


# -- every public member runs in production ------------------------------------

def public_members(module) -> dict[str, types.CodeType]:
    """The public functions of a module and the public and dunder methods
    and properties of its classes (as ``Class.member``), each by the code
    that a call enters: a cached, static or class method's wrapped
    function, a property's getter.  Only code written in the module's own
    file counts: names bound from other modules are left to those, and the
    dunders that ``namedtuple`` writes are no one's."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [
                (f"{name}.{a}", m)
                for a, m in vars(obj).items()
                if not a.startswith("_") or a.startswith("__") and a.endswith("__")
            ]
        for qualified, member in members:
            if isinstance(member, property):
                member = member.fget
            func = inspect.unwrap(getattr(member, "__func__", member))
            if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
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
    lib.__file__ = "lib.py"
    source = """
import functools
import typing

def used():
    return C().p

def unused():
    pass

@functools.lru_cache(maxsize=1)
def cached():
    pass

class C:
    def __init__(self):
        pass

    def __len__(self):
        return 0

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

class R(typing.NamedTuple):  # its __new__, __repr__, ... are namedtuple's
    x: int
"""
    exec(compile(source, lib.__file__, "exec"), vars(lib))
    entered = entered_code(lambda: (lib.used(), lib.C.s(), lib.R(1)))
    assert unentered_members([lib], entered) == [
        "lib: unused", "lib: cached", "lib: C.__len__", "lib: C.m"
    ]
    # a cache hit enters nothing: only a cleared cache shows its function
    lib.cached()
    assert unentered_members([lib], entered_code(lib.cached)) == [
        "lib: used", "lib: unused", "lib: cached", "lib: C.__init__", "lib: C.__len__",
        "lib: C.p", "lib: C.s", "lib: C.m"
    ]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run_the_drivers(files: dict, out: Path) -> None:
    """Every production driver, in this process: each subcommand and format
    of the command line on its fixtures, ``fvector-scan`` under both lifts,
    a node-cap abort and a non-matroidal valuation, both scripts, and
    ``ganter_hasse`` on a plain closure system, as the boolean-lattice
    benchmark calls it."""
    f = files
    # U(2,4) with {0,2} and {0,3} raised: a cell with a forbidden edge
    bad = {f"{i},{j}": "1" if (i, j) in ((0, 2), (0, 3)) else "0"
           for i in range(4) for j in range(i + 1, 4)}
    (out / "v_bad.json").write_text(json.dumps({"values": bad}))
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
    ]
    # the exit code each error path ends in
    failing = [
        (["flats", f["u24.json"], "--node-cap", "1"], 3),
        (["tls", f["u24.json"], str(out / "v_bad.json")], 1),
    ]
    census = str(ROOT / "data" / "census" / "census_n4_r2.txt")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in commands:
            assert main(argv) == 0, argv
        for argv, code in failing:
            assert main(argv) == code, argv
        assert load_script("survey_bounded_fvectors").main([census]) == 0
    load_script("make_mini_census").census_texts()
    ganter_hasse(ClosureSystem(GroundSet(4), lambda subset: subset))


def test_every_public_member_runs_in_production(files, tmp_path):
    # a member that no driver enters is kept for the tests alone
    modules = [importlib.import_module(f"tightspan.{p.stem}") for p in MODULES
               if p.name != "__main__.py"]
    clear_caches()  # a cache hit would not enter the function it keeps
    entered = entered_code(lambda: run_the_drivers(files, tmp_path))
    # read by bench/test_bench.py until it reads as_dict (ROADMAP item 1)
    assert unentered_members(modules, entered) == ["tightspan.matroid: Valuation.to_json"]
