"""Every command-line document, pinned.

For each argv of ``CASES``, ``golden_documents.json`` holds the exit code,
the sha256 of standard output, the standard error text and the sha256 of
each file the command writes (null for a file it leaves absent).  Every
command runs in-process through ``cli.main`` from one directory of input
files, written by ``write_inputs`` under the names the argvs use, because
error lines name their input paths.

Some standard error text is Python's own: argparse's usage errors, the
JSON decoder's messages and the recursion limit's.  Their wording and
wrapping vary across Python versions and with ``COLUMNS``, so for those
cases the table keeps no standard error; the case names a fragment that
the program writes itself, which the text must contain.

After a reviewed change of output, re-pin every case with

    PYTHONPATH=src python tests/test_golden.py

which rewrites ``golden_documents.json`` from the current program and
names on standard error each case it added, changed or removed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from conftest import hypersimplex, points_json, square_config, u12_power
from tightspan import Matroid, PointConfig
from tightspan.cli import main
from tightspan.closure import indices
from tightspan.oracle import normal_fan

TABLE = Path(__file__).with_name("golden_documents.json")


def _matroid(m: Matroid) -> str:
    return json.dumps({"n": m.n, "r": m.r, "bases": sorted(list(indices(b)) for b in m.bases)})


def _values(values) -> str:
    return json.dumps({"values": values})


def _fan(fan) -> str:
    return json.dumps({
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.maximal_cones],
        "lineality": [list(l) for l in fan.lineality],
    })


# a U(2,4) valuation raising {2,3}, as JSON members, and one bad key to add
U24_VALUES = ", ".join(
    f'"{a},{b}": "{1 if (a, b) == (2, 3) else 0}"' for a, b in combinations(range(4), 2)
)
BAD_KEYS = {
    "unsorted": '"3,2": "0"',
    "repeated-index": '"1,1": "0"',
    "out-of-range": '"0,9": "0"',
    "non-basis": '"0,1,2": "0"',
    "not-an-index": '"0,a": "0"',
    "duplicate": '"0,1": "5"',
    "same-basis": '"0, 1": "5"',
}
INT_FIELDS = {
    "m_repeated.json": '{"n": 3, "bases": [[0, 0, 1], [1, 2]]}',
    "m_float_n.json": '{"n": 3.7, "bases": [[0, 1]]}',
    "m_bool_n.json": '{"n": true, "bases": [[0]]}',
    "m_negative.json": '{"n": 3, "bases": [[0, -1]]}',
    "m_float_index.json": '{"n": 3, "bases": [[0, 1.0]]}',
    "m_float_r.json": '{"n": 4, "r": 2.0, "bases": [[0, 1], [0, 2]]}',
    "p_float_dim.json": '{"dim": 2.5, "points": [[0, 0], [1, 0]]}',
    "p_bool_dim.json": '{"dim": true, "points": [[0], [1]]}',
    # quoted by their own digits, not through a float (2.5, Infinity)
    "p_decimal_dim.json": '{"dim": 2.50000000000000000001, "points": [[0, 0], [1, 0]]}',
    "p_huge_dim.json": '{"dim": 1e400, "points": [[0]]}',
    "fan_float_ray.json": '{"rays": [[1.5, 0], [0, 1]], "cones": [[0, 1]]}',
    "fan_float_cone.json": '{"rays": [[1, 0], [0, 1]], "cones": [[0, 1.9]]}',
    "fan_bool_lineality.json": '{"rays": [[1, 0, 0]], "cones": [[0]], "lineality": [[0, 1, true]]}',
}
# a scalar where an array or an object belongs, at each level of each file
SHAPES = {
    "m_basis_scalar.json": '{"n": 3, "bases": [[0], 1]}',
    "v_list.json": '{"values": ["0"]}',
    "fan_rays_scalar.json": '{"rays": 5, "cones": []}',
    "fan_ray_scalar.json": '{"rays": [[1, 0], 5], "cones": [[0]]}',
    "fan_cones_scalar.json": '{"rays": [[1, 0]], "cones": 3}',
    "fan_cone_scalar.json": '{"rays": [[1, 0]], "cones": [0]}',
    "fan_lineality_scalar.json": '{"rays": [[1, 0]], "cones": [[0]], "lineality": 7}',
    "fan_lineality_vector_scalar.json": '{"rays": [[1, 0]], "cones": [[0]], "lineality": [1]}',
}
# a JSON value that is no rational number, in place of a valuation value,
# a height and a point entry; all but "huge", a number beyond a float's
# range that reads as exactly 10^400.  The last three are strings that are
# no number's text.
NOT_RATIONAL = {
    "null": "null",
    "bool": "true",
    "array": "[1]",
    "decimals": '[0.10000000000000000001, {"p": 1e400}]',
    "object": '{"p": 1}',
    "huge": "1e400",
    "nan": "NaN",
    "infinity": "Infinity",
    "abc_text": '"abc"',
    "infinity_text": '"Infinity"',
    "negative_denominator": '"1/-2"',
}
# a key given twice, in each kind of input file (v_duplicate.json is the
# valuation's)
TWICE = {
    "p_twice.json": '{"dim": 1, "dim": 2, "points": [[0], [1]]}',
    "h_twice.json": '{"values": ["1", "0", "1"], "values": ["0", "0", "0"]}',
    "m_twice.json": '{"n": 3, "bases": [[0, 1]], "n": 4}',
    "fan_twice.json": '{"rays": [[1, 0], [0, 1]], "cones": [[0, 1]], "cones": [[0]]}',
}
# a height with more significant digits than a float holds, as a JSON
# number and as a string: both must lift the middle point above the segment
EXACT = {
    "h_exact_number.json": '{"values": [0, 0.50000000000000000001, 1]}',
    "h_exact_string.json": '{"values": [0, "0.50000000000000000001", 1]}',
}
FAN_RULES = {
    "fan_repeated_ray.json": '{"rays": [[1, 0], [1, 0]], "cones": [[0], [1]]}',
    "fan_non_primitive.json": '{"rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}',
    "fan_nested.json": '{"rays": [[1, 0], [0, 1]], "cones": [[0, 1], [0]]}',
    "fan_unknown_ray.json": '{"rays": [[1, 0], [0, 1]], "cones": [[0, 5]]}',
    "fan_non_extreme.json": '{"rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1, 2]]}',
    "fan_cone_repeats.json": '{"rays": [[1, 0], [0, 1]], "cones": [[0, 0, 1]]}',
}


def write_inputs(directory: Path) -> None:
    """Every input file the argvs of ``CASES`` name, into ``directory``."""
    bad = {f"{i},{j}": "1" if (i, j) in ((0, 2), (0, 3)) else "0"
           for i in range(4) for j in range(i + 1, 4)}
    files = {
        "square.json": points_json(square_config()),
        "point.json": points_json(PointConfig.from_rows([[0]])),
        "fig1.json": json.dumps({"dim": 1, "points": [["-1"], ["0"], ["1"]]}),
        "fig1h.json": _values(["1", "0", "1"]),
        "line3.json": json.dumps({"dim": 1, "points": [[0], [1], [2]]}),
        "d24.json": points_json(hypersimplex(2, 4)),
        "h_oct.json": _values(["0", "0", "0", "0", "0", "1"]),
        "h_bad.json": _values(["0", "1", "1", "0", "0", "0"]),
        "h_sq.json": _values(["0", "0", "0", "1"]),
        # two disjoint supports, {0, 1} and {2, 3}: no matroid's bases
        "p_disjoint.json": json.dumps({"dim": 4, "points": [[1, 1, 0, 0], [0, 0, 1, 1]]}),
        "h_two.json": _values(["0", "0"]),
        # the square of U(1,2)+U(1,2), bases 02, 03, 12, 13: lineality 2
        "p1212.json": points_json(u12_power(2).polytope()),
        "h1212.json": _values(["0", "1", "1", "0"]),
        "u24.json": _matroid(Matroid.uniform(2, 4)),
        "u23.json": _matroid(Matroid.uniform(2, 3)),
        "u1212.json": _matroid(u12_power(2)),
        "u13u23.json": _matroid(Matroid.uniform(1, 3).direct_sum(Matroid.uniform(2, 3))),
        "v34.json": "{" + f'"values": {{{U24_VALUES}}}' + "}",
        "v_bad.json": _values(bad),
        "fan.json": _fan(normal_fan(square_config())),
        "fan_d24.json": _fan(normal_fan(hypersimplex(2, 4))),
        "census31.txt": "111\n110\n100\n",
        "census42.txt": "111111\n011110\n100001\n",
        # comments and blank lines count as lines; then a bad character, a
        # wrong length, no bases and a loop
        "census_mixed.txt": "# U(2,4) and friends\n\n111111\n11111x\n1111\n000000\n110000\n",
        # inputs that fail
        "not_json.json": "not json",
        "array.json": "[[0, 0], [1, 1]]",
        "deep.json": '{"dim": 2, "points": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "no_points.json": '{"dim": 2}',
        "no_bases.json": '{"n": 3}',
        "no_n.json": '{"bases": [[0]]}',
        "no_cones.json": '{"rays": [[1, 0], [0, 1]]}',
        "points_string.json": '{"dim": 1, "points": "012"}',
        "values_object.json": '{"values": {"1": "a", "0": "b", "5": "c"}}',
        "bases_5.json": '{"n": 3, "bases": 5}',
        "m_ground0.json": '{"n": 0, "bases": [[]]}',
        "m_no_basis.json": '{"n": 3, "bases": []}',
        "m_rank0.json": '{"n": 3, "bases": [[]]}',
        "m_r3.json": json.dumps({"n": 4, "r": 3, "bases": [list(c) for c in combinations(range(4), 2)]}),
        "m_exchange.json": '{"n": 11, "r": 3, "bases": [[0,1,2],[3,4,5]]}',
        "p_div0.json": '{"dim": 1, "points": [["1/0"], ["1"]]}',
        "h_huge.json": _values(["1e10000000", "0", "1"]),
        "v_missing.json": _values({f"{a},{b}": "0" for a, b in combinations(range(4), 2)
                                   if (a, b) != (2, 3)}),
        **INT_FIELDS,
        **SHAPES,
        **TWICE,
        **EXACT,
        **FAN_RULES,
        **{f"v_{name}.json": '{"values": {' + U24_VALUES + ", " + key + "}}"
           for name, key in BAD_KEYS.items()},
        **{f"v_not_{name}.json": '{"values": {' + U24_VALUES.replace('"2,3": "1"', f'"2,3": {value}') + "}}"
           for name, value in NOT_RATIONAL.items()},
        **{f"h_not_{name}.json": f'{{"values": ["1", {value}, "1"]}}'
           for name, value in NOT_RATIONAL.items()},
        **{f"p_not_{name}.json": f'{{"dim": 1, "points": [[0], [{value}]]}}'
           for name, value in NOT_RATIONAL.items()},
    }
    for name, text in files.items():
        (directory / name).write_text(text)


# argv -> (the files it writes, the fragment of a standard error that
# Python words, or None when the table pins the whole text)
CASES: dict[str, tuple[tuple[str, ...], str | None]] = {}


def case(argv: str, writes: tuple[str, ...] = (), fragment: str | None = None) -> None:
    assert argv not in CASES, argv
    CASES[argv] = (writes, fragment)


GRAPHS, REPORTS = ("json", "dot", "pretty"), ("json", "pretty")
SCAN = "fvector-scan census42.txt --n 4 --r 2"

# the production drivers' commands
for fmt in GRAPHS:
    for enc in ("vertex", "facet"):
        case(f"face-lattice square.json --format {fmt} --encoding {enc}")
    case(f"fan-lattice fan.json --format {fmt}")
    case(f"fan-lattice fan_d24.json --format {fmt}")
    case(f"flats u24.json --format {fmt}")
case("face-lattice square.json -o lattice.json", writes=("lattice.json",))
for points, heights in [("d24.json", "h_oct.json"), ("d24.json", "h_bad.json"),
                        ("square.json", "h_sq.json"), ("p1212.json", "h1212.json"),
                        ("fig1.json", "fig1h.json"), ("p_disjoint.json", "h_two.json")]:
    case(f"subdivide {points} {heights}")
case("subdivide d24.json h_oct.json -o sub.json", writes=("sub.json",))
for fmt in REPORTS:
    case(f"tls u24.json v34.json --format {fmt}")
    case(f"bergman u24.json --format {fmt}")
    case(f"bergman u1212.json --format {fmt}")
case("tls u24.json v34.json -o tls.json", writes=("tls.json",))
for lift in ("trivial", "corank"):
    for fmt in REPORTS:
        case(f"{SCAN} --lift {lift} --format {fmt}")
        case(f"{SCAN} --lift {lift} --format {fmt} --order revlex")
        case(f"fvector-scan census_mixed.txt --n 4 --r 2 --lift {lift} --format {fmt}")
case(f"{SCAN} --lift corank -o scan.jsonl", writes=("scan.jsonl",))
case("fvector-scan census31.txt --n 3 --r 1")

# the span under each gamma and quotient, at lineality 0, 1 and 2
for points, heights in [("fig1.json", "fig1h.json"), ("d24.json", "h_oct.json"),
                        ("p1212.json", "h1212.json")]:
    for gamma in ("all", "loops", "none"):
        for quotient in ("on", "off"):
            case(f"tightspan {points} {heights} --gamma {gamma} --quotient {quotient}")
case("tightspan d24.json h_oct.json")
case("tightspan d24.json h_oct.json -o span.json", writes=("span.json",))

# the corank lift, to standard output and to files
for m in ("u1212", "u13u23"):
    case(f"corank-lift {m}.json")
    case(f"corank-lift {m}.json -o {m}_v.json", writes=(f"{m}_v.json",))
    case(f"corank-lift {m}.json --emit-uniform {m}_u.json", writes=(f"{m}_u.json",))
    case(f"corank-lift {m}.json -o {m}_v2.json --emit-uniform {m}_u2.json",
         writes=(f"{m}_v2.json", f"{m}_u2.json"))

# a node cap on each enumerating command
case("face-lattice square.json --node-cap 3")
case("face-lattice square.json --encoding facet --node-cap 3")
case("fan-lattice fan.json --node-cap 3")
case("flats u24.json --node-cap 1")
case("tightspan d24.json h_oct.json --node-cap 5")
case("tls u24.json v34.json --node-cap 5")
case("bergman u24.json --node-cap 5")
for fmt in REPORTS:
    case(f"{SCAN} --lift corank --node-cap 5 --format {fmt}")

# one case per error class
case("face-lattice missing.json")
case("face-lattice not_json.json",
     fragment="error: bad point configuration in not_json.json: ")
case("tls u24.json not_json.json", fragment="error: bad valuation in not_json.json: ")
case("face-lattice deep.json", fragment="error: bad point configuration in deep.json: ")
for command in ("face-lattice", "flats", "fan-lattice"):
    case(f"{command} array.json")
case("subdivide array.json array.json")
case("face-lattice no_points.json")
case("flats no_bases.json")
case("flats no_n.json")
case("fan-lattice no_cones.json")
case("face-lattice points_string.json")
case("subdivide fig1.json values_object.json")
# pinned when Python worded this error; "bergman bases_5.json" pins its text
case("flats bases_5.json", fragment="error: bad matroid in bases_5.json: ")
case("bergman m_ground0.json")
case("bergman m_no_basis.json")
case("flats m_r3.json")
case("flats m_exchange.json")
for name in INT_FIELDS:
    command = {"m": "flats", "p": "face-lattice", "f": "fan-lattice"}[name[0]]
    case(f"{command} {name}")
case("bergman bases_5.json")
for name in SHAPES:
    command = {"m": "flats", "v": "tls u24.json", "f": "fan-lattice"}[name[0]]
    case(f"{command} {name}")
for name in TWICE:
    command = {"m": "flats", "p": "face-lattice", "h": "subdivide fig1.json",
               "f": "fan-lattice"}[name[0]]
    case(f"{command} {name}")
for name in EXACT:
    case(f"subdivide line3.json {name}")
for name in FAN_RULES:
    case(f"fan-lattice {name}")
for name in BAD_KEYS:
    case(f"tls u24.json v_{name}.json")
for name in NOT_RATIONAL:
    case(f"tls u24.json v_not_{name}.json")
    case(f"subdivide fig1.json h_not_{name}.json")
    case(f"face-lattice p_not_{name}.json")
case("tls u24.json v_missing.json")
case("tls u24.json v_bad.json")
case("face-lattice p_div0.json")
case("subdivide fig1.json h_huge.json")
case("face-lattice point.json --encoding facet")
case("tightspan fig1.json fig1h.json --gamma loops")
for command in ("subdivide", "tightspan"):
    case(f"{command} fig1.json h_sq.json")
case("bergman u23.json -o missing/x.json")
case("fvector-scan census31.txt --n 3 --r 1 -o missing/x.json")
case("corank-lift u1212.json -o missing/x.json")
case("corank-lift u1212.json -o kept.json --emit-uniform missing/x.json", writes=("kept.json",))
case("corank-lift m_rank0.json")
case("corank-lift u1212.json -o both.json --emit-uniform both.json", writes=("both.json",))
case("", fragment="the following arguments are required: command")
case("fvector-scan census42.txt --n 4 --r 7",
     fragment="error: argument --r: must be at most --n 4, got 7")
case(f"{SCAN} --node-cap 0",
     fragment="error: argument --node-cap: must be a positive integer, got '0'")
case(f"{SCAN} --jobs 2", fragment="error: argument --jobs: invalid choice")
case("tightspan d24.json h_oct.json --quotient maybe",
     fragment="error: argument --quotient: invalid choice")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(argv: str) -> dict:
    """What ``argv`` does when run from the input directory, the current
    one: its exit code, standard output digest, standard error and the
    digests of the files it writes, each removed first."""
    writes, fragment = CASES[argv]
    for name in writes:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    record = {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": err.getvalue(),
        "files": {
            name: _sha(Path(name).read_bytes()) if Path(name).exists() else None
            for name in writes
        },
    }
    if fragment is not None:
        assert fragment in record.pop("stderr"), (argv, err.getvalue())
    return record


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


PINNED = json.loads(TABLE.read_text()) if TABLE.exists() else {}


def test_the_table_pins_every_case_and_no_other():
    assert sorted(PINNED) == sorted(CASES)


def test_a_height_reads_the_same_as_a_number_and_as_a_string():
    number, string = (PINNED[f"subdivide line3.json {name}"] for name in EXACT)
    assert number == string and number["exit"] == 0


def test_a_repin_names_what_it_adds_changes_and_removes():
    old = {"a": {"exit": 0}, "b": {"exit": 0}, "c": {"exit": 1}}
    new = {"a": {"exit": 0}, "b": {"exit": 2}, "d": {"exit": 0}, "e": {"exit": 1}}
    assert repin_report(old, new) == (
        "2 added\n  'd'\n  'e'\n1 changed\n  'b'\n1 removed\n  'c'\n"
    )
    assert repin_report(new, new) == "0 added\n0 changed\n0 removed\n"


@pytest.mark.parametrize("argv", sorted(CASES))
def test_every_document_keeps_its_bytes(inputs, monkeypatch, argv):
    monkeypatch.chdir(inputs)
    assert observe(argv) == PINNED[argv]


def repin_report(old: dict, new: dict) -> str:
    """The cases a re-pin adds, changes and removes: one count line per
    kind, then the argv of each such case, indented."""
    kinds = {
        "added": sorted(new.keys() - old.keys()),
        "changed": sorted(a for a in new.keys() & old.keys() if new[a] != old[a]),
        "removed": sorted(old.keys() - new.keys()),
    }
    lines = []
    for kind, argvs in kinds.items():
        lines.append(f"{len(argvs)} {kind}")
        lines += [f"  {argv!r}" for argv in argvs]
    return "\n".join(lines) + "\n"


def repin() -> None:
    """Rewrite the table from the current program and report to standard
    error what the rewrite changed."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        try:
            table = {argv: observe(argv) for argv in sorted(CASES)}
        finally:
            os.chdir(home)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stderr.write(repin_report(PINNED, table))
    print(f"wrote {len(table)} cases to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    repin()
