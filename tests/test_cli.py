"""Command-line surface: dispatch, formats, determinism, error isolation."""

from __future__ import annotations

import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CENSUS, CENSUS_DIGESTS, u12_power
from tightspan import PointConfig, bergman_fan
from tightspan.cli import main
from tightspan.oracle import brute_vertex_flags

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_face_lattice_json(files, capsys):
    code, out, err = run(capsys, ["face-lattice", files["square.json"]])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 10
    assert len(data["arcs"]) == 16
    assert data["f_vector"] == [4, 4]


def test_face_lattice_both_encodings_agree_on_f_vector(files, capsys):
    _, out_v, _ = run(capsys, ["face-lattice", files["square.json"]])
    _, out_f, _ = run(
        capsys, ["face-lattice", files["square.json"], "--encoding", "facet"]
    )
    assert json.loads(out_v)["f_vector"] == json.loads(out_f)["f_vector"]


def test_face_lattice_dot(files, capsys):
    code, out, _ = run(capsys, ["face-lattice", files["square.json"], "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 16


def test_face_lattice_pretty(files, capsys):
    code, out, _ = run(capsys, ["face-lattice", files["square.json"], "--format", "pretty"])
    assert code == 0
    assert out == "nodes: 10\narcs:  16\nf-vector: (4, 4)\n"


def test_fan_lattice(files, capsys):
    code, out, _ = run(capsys, ["fan-lattice", files["fan.json"]])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 10


def test_a_fan_of_one_empty_cone_has_the_two_element_lattice(capsys, tmp_path):
    # the empty cone is the origin alone: its ray set is empty, and only the
    # artificial top lies above it
    fan = _write_text(tmp_path, "origin.json", '{"rays": [], "cones": [[]]}')
    code, out, err = run(capsys, ["fan-lattice", fan])
    assert (code, out, err) == (0, '{"arcs": [[0, 1]], "nodes": [[], [0]]}\n', "")


def test_flats(files, capsys):
    code, out, _ = run(capsys, ["flats", files["u24.json"]])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 6
    assert data["f_vector"] == [1, 4, 1]


def test_subdivide_matroidal_verdicts(files, capsys):
    code, out, _ = run(capsys, ["subdivide", files["d24.json"], files["h_oct.json"]])
    assert code == 0
    data = json.loads(out)
    assert data["matroidal"] is True
    assert len(data["maximal_cells"]) == 2

    code, out, _ = run(capsys, ["subdivide", files["d24.json"], files["h_bad.json"]])
    assert code == 0
    data = json.loads(out)
    assert data["matroidal"] is False
    assert data["witness_edge"] is not None

    # the square is 0/1 but not on one hypersimplex: no verdict
    code, out, _ = run(capsys, ["subdivide", files["square.json"], files["h_sq.json"]])
    assert code == 0
    data = json.loads(out)
    assert data["matroidal"] is None and data["witness_edge"] is None


def test_subdivide_on_a_single_point_is_matroidal(capsys, tmp_path):
    # a 0-dimensional point is the one basis of the rank-0 matroid on no
    # elements: the gate decides it without the rule that a Matroid needs
    # a nonempty ground set
    points, heights = tmp_path / "p.json", tmp_path / "h.json"
    points.write_text('{"dim": 0, "points": [[]]}')
    heights.write_text('{"values": [0]}')
    code, out, err = run(capsys, ["subdivide", str(points), str(heights)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["matroidal"] is True and data["witness_edge"] is None
    assert data["maximal_cells"] == [[0]]


def test_tightspan_gammas(files, capsys):
    code, out, _ = run(
        capsys, ["tightspan", files["fig1.json"], files["fig1h.json"], "--gamma", "none"]
    )
    assert code == 0
    assert json.loads(out)["f_vector"] == [2, 3]
    code, out, _ = run(
        capsys, ["tightspan", files["fig1.json"], files["fig1h.json"], "--gamma", "all"]
    )
    assert json.loads(out)["f_vector"] == [2, 1]
    code, out, _ = run(
        capsys,
        ["tightspan", files["d24.json"], files["h_oct.json"], "--gamma", "loops"],
    )
    assert json.loads(out)["f_vector"] == [2, 5]


def test_quotient_off(files, capsys):
    _, out, _ = run(
        capsys,
        ["tightspan", files["d24.json"], files["h_oct.json"], "--gamma", "loops",
         "--quotient", "off"],
    )
    assert json.loads(out)["f_vector"] == [0, 2, 5]


def test_tls_report(files, capsys):
    code, out, _ = run(capsys, ["tls", files["u24.json"], files["v34.json"]])
    assert code == 0
    data = json.loads(out)
    assert data["bounded_f_vector"] == [2, 1]
    assert data["within_bound"] == [True, True]

    code, out, _ = run(
        capsys, ["tls", files["u24.json"], files["v34.json"], "--format", "pretty"]
    )
    assert "bounded f-vector: (2, 1)" in out


def test_bergman(files, capsys):
    code, out, _ = run(capsys, ["bergman", files["u23.json"]])
    assert code == 0
    data = json.loads(out)
    assert data["f_vector"] == [1, 3]


def test_bergman_prints_the_library_document(files, capsys):
    # U(1,2) + U(1,2): the sum-zero lineality basis and its dimension replace
    # the span's lineality, of dimension 2
    code, out, _ = run(capsys, ["bergman", files["u1212.json"]])
    assert code == 0
    assert out == (
        '{"bounded_f_vector": [1], "cells": [{"rays": [], "vertices": [0]}], "dim": 1, '
        '"f_vector": [1], "lineality": [[1, 1, -1, -1]], "lineality_dim": 1, "n": 4, '
        '"r": 2, "rays": [[1, -1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1], [-1, 1, 0, 0]], '
        '"speyer_bounds": [2, 1], "vertices": [["0", "0", "0", "0"]], '
        '"within_bound": [true, true]}\n'
    )
    assert out == json.dumps(bergman_fan(u12_power(2)).as_dict(), sort_keys=True) + "\n"


def test_corank_lift_and_pipe_to_tls(files, capsys, tmp_path):
    uniform_path = str(tmp_path / "u24_gen.json")
    code, out, _ = run(
        capsys,
        ["corank-lift", files["u1212.json"], "--emit-uniform", uniform_path],
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"]["0,1"] == "1"
    assert data["values"]["0,2"] == "0"
    val_path = str(tmp_path / "v.json")
    with open(val_path, "w") as fh:
        fh.write(out)
    code, out, _ = run(capsys, ["tls", uniform_path, val_path])
    assert code == 0
    assert json.loads(out)["bounded_f_vector"] == [2, 1]


@pytest.mark.parametrize("to_file", [False, True])
def test_corank_lift_with_a_bad_uniform_path_writes_no_valuation(files, capsys, tmp_path, to_file):
    val_path = tmp_path / "v.json"
    argv = ["corank-lift", files["u1212.json"], "--emit-uniform", str(tmp_path / "no" / "u.json")]
    code, out, err = run(capsys, argv + (["-o", str(val_path)] if to_file else []))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not val_path.exists() or val_path.read_text() == ""


def test_corank_lift_with_a_bad_uniform_path_keeps_the_old_output(files, capsys, tmp_path):
    val_path = tmp_path / "v.json"
    val_path.write_text('{"old": 1}\n')
    argv = ["corank-lift", files["u1212.json"], "-o", str(val_path)]
    code, out, err = run(capsys, argv + ["--emit-uniform", str(tmp_path / "no" / "u.json")])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert val_path.read_text() == '{"old": 1}\n'


@pytest.mark.parametrize("alias", ["same path", "symlink"])
def test_corank_lift_refuses_one_file_for_both_outputs(files, capsys, tmp_path, alias):
    # both documents would land in one file, which then holds no JSON
    val_path = tmp_path / "v.json"
    val_path.write_text('{"old": 1}\n')
    uniform = val_path
    if alias == "symlink":
        uniform = tmp_path / "link.json"
        uniform.symlink_to(val_path)
    argv = ["corank-lift", files["u1212.json"], "-o", str(val_path)]
    code, out, err = run(capsys, argv + ["--emit-uniform", str(uniform)])
    assert code == 1 and out == ""
    assert err == f"error: -o and --emit-uniform both name {uniform}\n"
    assert val_path.read_text() == '{"old": 1}\n'


def test_corank_lift_refuses_the_file_standard_output_appends_to(files, tmp_path):
    # without -o the valuation goes to standard output, here that same file
    uniform = tmp_path / "u.json"
    uniform.write_text('{"old": 1}\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["corank-lift", files["u1212.json"], "--emit-uniform", str(uniform)]
    with open(uniform, "a", encoding="utf-8") as stdout:
        proc = subprocess.run([sys.executable, "-m", "tightspan", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == f"error: -o and --emit-uniform both name {uniform}\n"
    assert uniform.read_text() == '{"old": 1}\n'


def test_corank_lift_writes_through_a_symlink(files, capsys, tmp_path):
    # the link stays a link, and its target's longer old contents are gone
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 10_000)
    link.symlink_to(target)
    code, out, _ = run(capsys, ["corank-lift", files["u1212.json"]])
    assert code == 0
    assert run(capsys, ["corank-lift", files["u1212.json"], "-o", str(link)])[:2] == (0, "")
    assert link.is_symlink() and target.read_text() == out


def test_corank_lift_writes_into_a_named_pipe(files, capsys, tmp_path):
    # a destination that is not a regular file is written to, not replaced
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, _ = run(capsys, ["corank-lift", files["u1212.json"], "-o", str(fifo)])
    reader.join(timeout=30)
    assert (code, out) == (0, "")
    assert got and json.loads(got[0])["values"]["0,1"] == "1"
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_fvector_scan_pretty_names_node_cap_aborts(files, capsys):
    argv = ["fvector-scan", files["census42.txt"], "--n", "4", "--r", "2", "--node-cap", "3"]
    code, out, _ = run(capsys, argv + ["--format", "pretty"])
    assert code == 0
    assert out == (
        "line    0  CAPPED: closed-set enumeration exceeded node cap 3 "
        "(3 closed sets found before aborting)\n"
        "line    1  bounded (1,)  f (1,)\n"
        "line    2  SKIPPED: census line violates the exchange axiom\n"
        "summary: 1 ok, 2 failed\n"
    )


def test_fvector_scan_isolation(files, capsys):
    code, out, _ = run(capsys, ["fvector-scan", files["census31.txt"], "--n", "3", "--r", "1"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 4  # 3 report lines + summary
    assert lines[0]["ok"] is True
    assert lines[1]["ok"] is False and "loop" in lines[1]["error"]
    assert lines[2]["ok"] is False
    assert lines[3]["summary"] == {"ok": 1, "failed": 2}


def test_fvector_scan_corank_lift(files, capsys):
    code, out, _ = run(
        capsys,
        ["fvector-scan", files["census42.txt"], "--n", "4", "--r", "2",
         "--lift", "corank"],
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0]["bounded_f_vector"] == [1]  # uniform: one vertex
    assert lines[1]["bounded_f_vector"] == [2, 1]
    assert lines[2]["ok"] is False  # exchange failure isolated
    assert lines[3]["summary"]["failed"] == 1


def test_fvector_scan_jobs_match(files, capsys):
    _, seq, _ = run(capsys, ["fvector-scan", files["census31.txt"], "--n", "3", "--r", "1"])
    _, par, _ = run(
        capsys,
        ["fvector-scan", files["census31.txt"], "--n", "3", "--r", "1", "--jobs", "2"],
    )
    assert seq == par


def test_python_dash_m_matches_main(files, capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tightspan", "bergman", files["u23.json"]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    code, out, _ = run(capsys, ["bergman", files["u23.json"]])
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and proc.stderr == ""


def test_start_up_imports_no_module_it_does_not_need():
    # dataclasses pulls in inspect, ast, dis and tokenize; multiprocessing is
    # only for --jobs above 1, traceback only for a scan line that crashes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    unneeded = ("dataclasses", "inspect", "multiprocessing", "traceback")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tightspan, tightspan.cli\n"
         f"print(sorted(set({unneeded!r}) & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_byte_identical_reruns(files, capsys):
    for argv in (
        ["face-lattice", files["square.json"]],
        ["tls", files["u24.json"], files["v34.json"]],
        ["bergman", files["u23.json"]],
        ["subdivide", files["d24.json"], files["h_oct.json"]],
    ):
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b


def test_output_file(files, capsys, tmp_path):
    out_path = str(tmp_path / "out.json")
    code, out, _ = run(capsys, ["bergman", files["u23.json"], "-o", out_path])
    assert code == 0 and out == ""
    assert json.loads(Path(out_path).read_text())["f_vector"] == [1, 3]


def test_error_exit_codes(files, capsys):
    code, _, err = run(capsys, ["face-lattice", files["dir"] + "/missing.json"])
    assert code == 1 and "error" in err

    bad = files["dir"] + "/bad.json"
    with open(bad, "w") as fh:
        fh.write("not json")
    code, _, err = run(capsys, ["face-lattice", bad])
    assert code == 1

    code, _, err = run(
        capsys, ["face-lattice", files["square.json"], "--node-cap", "3"]
    )
    assert code == 3

    # gamma loops on a non-0/1 configuration
    code, _, err = run(
        capsys,
        ["tightspan", files["fig1.json"], files["fig1h.json"], "--gamma", "loops"],
    )
    assert code == 1


# -- insertion-order equivariance ----------------------------------------------

def _cli_document(command, inputs, *options):
    """The JSON document of ``command`` on the given JSON inputs."""
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, payload in enumerate(inputs):
            paths.append(os.path.join(d, f"in{i}.json"))
            Path(paths[-1]).write_text(json.dumps(payload))
        out = os.path.join(d, "out.json")
        assert main([command, *paths, *options, "-o", out]) == 0
        return json.loads(Path(out).read_text())


@st.composite
def permuted_lifting(draw):
    """Distinct integer points with integer heights, and the same lifted
    points in a drawn order: entry k of the second is entry perm[k] of the first."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=7, unique=True))
    hts = draw(st.lists(st.integers(-3, 3), min_size=len(pts), max_size=len(pts)))
    perm = draw(st.permutations(range(len(pts))))
    return [
        (
            {"dim": dim, "points": [[str(x) for x in p] for p in pp]},
            {"values": [str(h) for h in hh]},
        )
        for pp, hh in ((pts, hts), ([pts[k] for k in perm], [hts[k] for k in perm]))
    ]


def _config(payload):
    return PointConfig.from_json(json.dumps(payload))


def _as_points(cells, points):
    """Each cell, a list of indices into ``points``, as the set of its points."""
    return sorted(sorted(points[i] for i in cell) for cell in cells)


@settings(max_examples=40, deadline=None)
@given(permuted_lifting(), st.sampled_from(["none", "all"]))
def test_permuting_the_input_points_permutes_every_document(lifting, gamma):
    (config, _), (pconfig, _) = lifting
    pts, ppts = config["points"], pconfig["points"]

    # face-lattice: vertex nodes name vertices in input order, facet nodes
    # name facets in their sorted order
    verts = [p for p, flag in zip(pts, brute_vertex_flags(_config(config))) if flag]
    pverts = [p for p, flag in zip(ppts, brute_vertex_flags(_config(pconfig))) if flag]
    doc, pdoc = (_cli_document("face-lattice", [c]) for c in (config, pconfig))
    assert _as_points(doc["nodes"], verts) == _as_points(pdoc["nodes"], pverts)
    assert doc["f_vector"] == pdoc["f_vector"]
    facet, pfacet = (
        _cli_document("face-lattice", [c], "--encoding", "facet") for c in (config, pconfig)
    )
    assert facet == pfacet

    # subdivide: the cells and boundary facets, as point sets, with carriers
    doc, pdoc = (_cli_document("subdivide", inputs) for inputs in lifting)
    assert _as_points(doc["maximal_cells"], pts) == _as_points(pdoc["maximal_cells"], ppts)
    carried, pcarried = (
        sorted(
            (sorted(p[i] for i in facet), carrier)
            for facet, carrier in zip(d["boundary_facets"], d["carrier_facets"])
        )
        for d, p in ((doc, pts), (pdoc, ppts))
    )
    assert carried == pcarried
    assert doc["matroidal"] == pdoc["matroidal"]

    # tightspan: the same dual vertices, cells and f-vectors
    doc, pdoc = (_cli_document("tightspan", inputs, "--gamma", gamma) for inputs in lifting)
    for key in ("f_vector", "bounded_f_vector", "lineality", "lineality_dim"):
        assert doc[key] == pdoc[key], key
    assert sorted(doc["vertices"]) == sorted(pdoc["vertices"])
    cells, pcells = (
        sorted(
            (
                sorted(d["vertices"][v] for v in c["vertices"]),
                sorted(d["rays"][r] for r in c["rays"]),
            )
            for c in d["cells"]
        )
        for d in (doc, pdoc)
    )
    assert cells == pcells


# -- malformed input: one "error:" line and exit code 1, never a traceback -----

def _write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_zero_denominator_is_input_error(files, capsys, tmp_path):
    bad = _write_text(tmp_path, "div0.json", '{"dim": 1, "points": [["1/0"], ["1"]]}')
    code, _, err = run(capsys, ["face-lattice", bad])
    assert code == 1 and err.startswith("error:") and "denominator" in err

    bad = _write_text(tmp_path, "v0.json", json.dumps({"values": {"0,1": "1/0"}}))
    code, _, err = run(capsys, ["tls", files["u24.json"], bad])
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("entry", ["point", "height", "valuation"])
def test_huge_decimal_exponent_is_input_error(files, capsys, tmp_path, entry):
    # expanding 10**10000000 exactly would take minutes
    huge = "1e10000000"
    if entry == "point":
        bad = _write_text(tmp_path, "p.json", json.dumps({"dim": 1, "points": [[huge], ["0"]]}))
        argv = ["face-lattice", bad]
    elif entry == "height":
        bad = _write_text(tmp_path, "h.json", json.dumps({"values": [huge, "0", "1"]}))
        argv = ["subdivide", files["fig1.json"], bad]
    else:
        bad = _write_text(tmp_path, "v.json", json.dumps({"values": {"0,1": huge}}))
        argv = ["tls", files["u24.json"], bad]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "exponent" in err


def test_each_input_file_is_decoded_once(files, capsys, monkeypatch):
    calls = []
    loads = json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    code, _, _ = run(capsys, ["tls", files["u24.json"], files["v34.json"]])
    monkeypatch.undo()
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["subdivide", "tightspan"])
def test_heights_of_wrong_length_is_input_error(files, capsys, command):
    code, out, err = run(capsys, [command, files["fig1.json"], files["h_sq.json"]])
    assert code == 1 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "length" in err
    # both files are named, as in every other input error
    assert f"{files['h_sq.json']}: its length 4" in err
    assert f"the 3 points of {files['fig1.json']}" in err


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("face-lattice", '{"dim": 1, "points": "012"}', "points must be an array"),
        (
            "face-lattice",
            '{"dim": 2, "points": [{"0": 9, "1": 9}, {"1": 9, "0": 9}, [1, 1]]}',
            "point must be an array",
        ),
        ("subdivide", '{"values": "102"}', "values must be an array"),
        ("subdivide", '{"values": {"1": "a", "0": "b", "5": "c"}}', "values must be an array"),
    ],
    ids=["points-string", "point-objects", "values-string", "values-object"],
)
def test_array_fields_take_json_arrays_only(files, capsys, tmp_path, command, text, field):
    # iterating a string or an object read its characters or its keys as
    # entries ("012" gave three points, {"0": 9, "1": 9} the point (0, 1)),
    # and the command ran on that made-up geometry with exit 0
    bad = _write_text(tmp_path, "in.json", text)
    argv = [command, bad] if command == "face-lattice" else [command, files["fig1.json"], bad]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: bad ") and field in err
    assert bad in err


def test_top_level_array_is_input_error(capsys, tmp_path):
    bad = _write_text(tmp_path, "arr.json", "[[0, 0], [1, 1]]")
    for argv in (["face-lattice", bad], ["flats", bad], ["fan-lattice", bad],
                 ["subdivide", bad, bad]):
        code, _, err = run(capsys, argv)
        assert code == 1 and err.startswith("error:"), argv
        assert "JSON object" in err


@pytest.mark.parametrize(
    "key,text,reason",
    [
        ("3,2", '"3,2": "0"', "increasing"),
        ("1,1", '"1,1": "0"', "increasing"),
        ("0,9", '"0,9": "0"', "outside 0..3"),
        ("0,1,2", '"0,1,2": "0"', "not a basis"),
        ("0,a", '"0,a": "0"', "comma-joined"),
        ("0,1", '"0,1": "5"', "appears twice"),
        ("0, 1", '"0, 1": "5"', "given before"),
    ],
    ids=["unsorted", "repeated-index", "out-of-range", "non-basis", "not-an-index",
         "duplicate", "same-basis"],
)
def test_bad_valuation_key_is_input_error(files, capsys, tmp_path, key, text, reason):
    # a U(2,4) valuation with every basis valued, plus one bad key; before
    # keys were checked, "3,2" silently overwrote "2,3" and the f-vector
    # came out (1,4) instead of (2,5)
    good = ", ".join(
        f'"{a},{b}": "{1 if (a, b) == (2, 3) else 0}"' for a, b in combinations(range(4), 2)
    )
    bad = _write_text(tmp_path, "vbad.json", '{"values": {' + good + ", " + text + "}}")
    code, out, err = run(capsys, ["tls", files["u24.json"], bad])
    assert code == 1 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert repr(key) in err and reason in err


def test_a_text_that_is_no_json_is_reported_before_a_repeated_key(files, capsys, tmp_path):
    # the valuation decoder refuses the repeated key as soon as its object
    # closes, before it reaches the syntax error after it; a text that is
    # no JSON is reported as such before any fault of its fields
    bad = _write_text(tmp_path, "v.json", '{"values": {"0,1": "1", "0,1": "2"}, ')
    code, out, err = run(capsys, ["tls", files["u24.json"], bad])
    assert code == 1 and out == ""
    assert err == (
        f"error: bad valuation in {bad}: Expecting property name enclosed in "
        "double quotes: line 1 column 38 (char 37)\n"
    )


def test_valuation_missing_a_basis_is_input_error(files, capsys, tmp_path):
    values = {f"{a},{b}": "0" for a, b in combinations(range(4), 2) if (a, b) != (2, 3)}
    bad = _write_text(tmp_path, "v5.json", json.dumps({"values": values}))
    code, out, err = run(capsys, ["tls", files["u24.json"], bad])
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error:") and "must assign a value to every basis" in err


def test_too_deeply_nested_json_is_input_error(files, capsys, tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    bad = _write_text(tmp_path, "deep.json", '{"dim": 2, "points": ' + deep + "}")
    for argv in (["face-lattice", bad], ["fan-lattice", bad], ["tls", files["u24.json"], bad]):
        code, _, err = run(capsys, argv)
        assert code == 1 and err.startswith("error:") and "recursion" in err, argv


def test_bases_of_wrong_shape_is_input_error(capsys, tmp_path):
    bad = _write_text(tmp_path, "b5.json", '{"n": 3, "bases": 5}')
    code, _, err = run(capsys, ["flats", bad])
    assert code == 1 and err.startswith("error:") and "bad matroid" in err

    empty = _write_text(tmp_path, "m0.json", '{"n": 0, "bases": [[]]}')
    code, _, err = run(capsys, ["bergman", empty])
    assert code == 1 and "nonempty ground set" in err

    no_basis = _write_text(tmp_path, "m_none.json", '{"n": 3, "bases": []}')
    code, out, err = run(capsys, ["bergman", no_basis])
    assert (code, out) == (1, "")
    assert err == f"error: bad matroid in {no_basis}: a matroid needs at least one basis\n"

    rank0 = _write_text(tmp_path, "r0.json", '{"n": 3, "bases": [[]]}')
    code, out, err = run(capsys, ["corank-lift", rank0])
    assert code == 1 and out == ""
    # the message names the input and its fault, not an internal step
    assert err == (
        f"error: bad matroid in {rank0}: it has rank 0, "
        "and a corank lift needs rank 1 or more\n"
    )


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("flats", '{"n": 3, "bases": [[0, 0, 1], [1, 2]]}', "repeats an element"),
        ("flats", '{"n": 3.7, "bases": [[0, 1]]}', "n must be an integer"),
        ("flats", '{"n": true, "bases": [[0]]}', "n must be an integer"),
        ("flats", '{"n": 3, "bases": [[0, -1]]}', "basis element outside"),
        ("flats", '{"n": 3, "bases": [[0, 1.0]]}', "basis index must be an integer"),
        ("flats", '{"n": 3, "bases": [[0, true]]}', "basis index must be an integer"),
        ("face-lattice", '{"dim": 2.5, "points": [[0, 0], [1, 0]]}', "dim must be"),
        ("face-lattice", '{"dim": true, "points": [[0], [1]]}', "dim must be"),
        ("fan-lattice", '{"rays": [[1.5, 0], [0, 1]], "cones": [[0, 1]]}', "ray entry"),
        ("fan-lattice", '{"rays": [[1, 0], [0, 1]], "cones": [[0, 1.9]]}', "cone index"),
        (
            "fan-lattice",
            '{"rays": [[1, 0, 0]], "cones": [[0]], "lineality": [[0, 1, true]]}',
            "lineality entry",
        ),
    ],
    ids=["repeated-index", "float-n", "bool-n", "negative-index", "float-index",
         "bool-index", "float-dim", "bool-dim", "float-ray", "float-cone",
         "bool-lineality"],
)
def test_integer_fields_take_json_integers_only(capsys, tmp_path, command, text, field):
    # int() used to truncate these (3.7 -> 3, true -> 1, [0, 0, 1] -> {0, 1})
    # and the command ran on the truncated input with exit 0
    bad = _write_text(tmp_path, "in.json", text)
    code, out, err = run(capsys, [command, bad])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and field in err


def test_stated_rank_must_match_the_bases(capsys, tmp_path):
    # the six 2-subsets of [4] under "r": 3 used to print a rank-2 lattice
    pairs = [list(b) for b in combinations(range(4), 2)]
    bad = _write_text(tmp_path, "r3.json", json.dumps({"n": 4, "r": 3, "bases": pairs}))
    code, out, err = run(capsys, ["flats", bad])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "r = 3" in err and "basis size 2" in err

    bad = _write_text(tmp_path, "rf.json", json.dumps({"n": 4, "r": 2.0, "bases": pairs}))
    code, _, err = run(capsys, ["flats", bad])
    assert code == 1 and "r must be an integer" in err

    for doc in ({"n": 4, "r": 2, "bases": pairs}, {"n": 4, "bases": pairs}):
        good = _write_text(tmp_path, "r2.json", json.dumps(doc))
        code, out, _ = run(capsys, ["flats", good])
        assert code == 0 and json.loads(out)["f_vector"] == [1, 4, 1]


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("flats", '{"n": 3}', "bases"),
        ("flats", '{"bases": [[0]]}', "n"),
        ("fan-lattice", '{"rays": [[1, 0], [0, 1]]}', "cones"),
        ("face-lattice", '{"dim": 2}', "points"),
    ],
)
def test_missing_key_is_named(capsys, tmp_path, command, text, key):
    bad = _write_text(tmp_path, "in.json", text)
    code, out, err = run(capsys, [command, bad])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.rstrip().endswith(f'missing key "{key}"')


def test_large_ground_set_is_checked_for_basis_exchange(capsys, tmp_path):
    bad = _write_text(tmp_path, "m11.json", '{"n": 11, "r": 3, "bases": [[0,1,2],[3,4,5]]}')
    code, out, err = run(capsys, ["flats", bad])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "exchange" in err


def test_unwritable_output_is_input_error(files, capsys, tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, ["bergman", files["u23.json"], "-o", missing])
    assert code == 1 and err.startswith("error: cannot write")
    code, _, err = run(
        capsys, ["fvector-scan", files["census31.txt"], "--n", "3", "--r", "1",
                 "-o", missing]
    )
    assert code == 1 and err.startswith("error: cannot write")


def test_fan_with_unknown_ray_is_input_error(capsys, tmp_path):
    bad = _write_text(tmp_path, "fan.json", '{"rays": [[1, 0], [0, 1]], "cones": [[0, 5]]}')
    code, _, err = run(capsys, ["fan-lattice", bad])
    assert code == 1 and "bad fan" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"rays": [[1, 0], [1, 0]], "cones": [[0], [1]]}', "fan rays must be distinct"),
        ('{"rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}', "ray (2, 0) is not primitive"),
        (
            '{"rays": [[1, 0], [0, 1]], "cones": [[0, 1], [0]]}',
            "maximal cones must not contain one another",
        ),
    ],
    ids=["repeated-ray", "non-primitive-ray", "nested-cones"],
)
def test_fan_breaking_a_rule_is_input_error(capsys, tmp_path, text, reason):
    bad = _write_text(tmp_path, "fan.json", text)
    code, out, err = run(capsys, ["fan-lattice", bad])
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: bad fan") and reason in err


def test_fan_with_non_extreme_ray_is_input_error(capsys, tmp_path):
    bad = _write_text(
        tmp_path, "fan.json", '{"rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1, 2]]}'
    )
    code, _, err = run(capsys, ["fan-lattice", bad])
    assert code == 1 and "bad fan" in err and "not extreme" in err


def test_fan_cone_with_a_repeated_ray_is_input_error(files, capsys, tmp_path):
    # used to be reported as "ray 2 is not extreme in cone (2, 2, 3)"
    fan = json.loads(Path(files["fan.json"]).read_text())
    fan["cones"][0] = [fan["cones"][0][0]] + fan["cones"][0]
    bad = _write_text(tmp_path, "fan.json", json.dumps(fan))
    code, out, err = run(capsys, ["fan-lattice", bad])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "repeats an element" in err
    assert "not extreme" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fvector_scan_closed_stdout_ends_quietly(tmp_path, jobs):
    # the reader stops after one line, as `| head -1` does; the records
    # (about 160 bytes each) overflow any pipe buffer long before the end
    census = _write_text(tmp_path, "c31.txt", "111\n" * 2000)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tightspan", "fvector-scan", census,
         "--n", "3", "--r", "1", "--jobs", jobs],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert json.loads(proc.stdout.readline())["line"] == 0
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fvector_scan_keeps_results_past_a_crashing_line(files, capsys, monkeypatch, jobs):
    # lines 0 and 3 are U(1,3); lines 1 and 2 have two bases and are made
    # to raise an exception that no input error explains
    from tightspan import cli

    real = cli.bergman_source

    def flaky(m):
        if len(m.bases) == 2:
            raise ZeroDivisionError("boom")
        return real(m)

    monkeypatch.setattr(cli, "bergman_source", flaky)
    census = files["dir"] + "/census.txt"
    with open(census, "w") as fh:
        fh.write("111\n011\n110\n111\n")
    code, out, err = run(
        capsys, ["fvector-scan", census, "--n", "3", "--r", "1", "--jobs", jobs]
    )
    assert code == 1 and err.splitlines()[-1].startswith("error:")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r.get("line") for r in records[:-1]] == [0, 1, 2, 3]
    assert records[0]["ok"] and records[3]["ok"]
    assert records[0]["f_vector"] == records[3]["f_vector"]
    for crashed in records[1:3]:
        assert crashed["ok"] is False and crashed["exception"] == "ZeroDivisionError"
    assert records[-1] == {"summary": {"failed": 2, "ok": 2}}

    code, out, _ = run(
        capsys,
        ["fvector-scan", census, "--n", "3", "--r", "1", "--jobs", jobs, "--format", "pretty"],
    )
    lines = out.splitlines()
    assert code == 1 and len(lines) == 5
    assert lines[1:3] == [f"line    {i}  FAILED (ZeroDivisionError): boom" for i in (1, 2)]
    assert lines[-1] == "summary: 2 ok, 2 failed"


@pytest.mark.parametrize(
    "census, jobs, sizes",
    [("111\n", "4", []), ("111\n110\n", "8", [2]), ("111\n110\n100\n", "2", [2])],
)
def test_fvector_scan_starts_at_most_one_worker_per_line(
    tmp_path, capsys, monkeypatch, census, jobs, sizes
):
    import multiprocessing

    started = []

    class RecordingPool:
        """Records the pool size asked for and runs the lines in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    path = _write_text(tmp_path, "c31.txt", census)
    code, out, _ = run(capsys, ["fvector-scan", path, "--n", "3", "--r", "1", "--jobs", jobs])
    assert code == 0 and started == sizes
    assert len(out.splitlines()) == census.count("\n") + 1


def test_fvector_scan_checks_the_line_length_before_listing_the_bases(tmp_path, capsys):
    # C(40, 20) = 137846528820 subsets: listing them would not finish
    path = _write_text(tmp_path, "c.txt", "1111111111\n")
    code, out, _ = run(capsys, ["fvector-scan", path, "--n", "40", "--r", "20"])
    record, summary = map(json.loads, out.splitlines())
    assert code == 0 and summary == {"summary": {"failed": 1, "ok": 0}}
    assert record["error"] == "census line has 10 characters, expected 137846528820"


# -- the scan's line reports, kept per command ----------------------------------

@pytest.mark.parametrize("census", sorted(CENSUS_DIGESTS))
def test_each_scan_enumerates_each_distinct_subdivision_once(capsys, monkeypatch, census):
    # 171 lines, 26 distinct sets of maximal cells in each file;
    # a second command in the same process enumerates them all again
    from tightspan import troplin

    calls = []
    real = troplin.coordinatize

    def counting(sub, gamma, node_cap):
        calls.append(sub.maximal_cells)
        return real(sub, gamma, node_cap=node_cap)

    monkeypatch.setattr(troplin, "coordinatize", counting)
    r, _ = CENSUS_DIGESTS[census]
    argv = ["fvector-scan", str(CENSUS / census), "--n", "5", "--r", str(r), "--lift", "corank"]
    outputs = []
    for _ in range(2):
        calls.clear()
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(calls) == len(set(calls)) == 26
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("lift", ["trivial", "corank"])
def test_each_scan_record_is_its_own_lines_report(capsys, lift):
    # each record is the report of its own line built without the scan; on
    # this file, two pairs of lines with different polytopes under the
    # trivial lift share their cell and facet masks
    from tightspan import ValuatedMatroid, corank_valuation, parse_census_line
    from tightspan import tropical_linear_space

    lines = (CENSUS / "census_n4_r2.txt").read_text().split()
    code, out, _ = run(capsys, ["fvector-scan", str(CENSUS / "census_n4_r2.txt"),
                                "--n", "4", "--r", "2", "--lift", lift])
    records = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and len(records) == len(lines)
    for line, record in zip(lines, records):
        m = parse_census_line(line, 4, 2)
        if lift == "corank":
            tls = tropical_linear_space(ValuatedMatroid(valuation=corank_valuation(m)))
        elif m.loops():
            continue
        else:
            tls = bergman_fan(m)
        assert record == {"line": record["line"], "ok": True, **tls.report}


def test_lines_sharing_a_subdivision_are_capped_alike(tmp_path, capsys, monkeypatch):
    # U(2,4) twice: one subdivision under either lift, whose enumeration
    # aborts once and gives both lines its message
    from tightspan import subdivision

    calls = []
    real = subdivision.ganter_hasse

    def counting(system, node_cap):
        calls.append(node_cap)
        return real(system, node_cap=node_cap)

    monkeypatch.setattr(subdivision, "ganter_hasse", counting)
    path = _write_text(tmp_path, "c42.txt", "111111\n111111\n")
    capped = ("CAPPED: closed-set enumeration exceeded node cap 3 "
              "(3 closed sets found before aborting)")
    for lift in ("trivial", "corank"):
        calls.clear()
        code, out, _ = run(capsys, ["fvector-scan", path, "--n", "4", "--r", "2", "--lift", lift,
                                    "--node-cap", "3", "--format", "pretty"])
        assert code == 0 and calls == [3]
        assert out.splitlines() == [f"line    {i}  {capped}" for i in (0, 1)] + [
            "summary: 0 ok, 2 failed"
        ]


def test_every_line_sharing_a_subdivision_is_checked_against_the_bound(
    tmp_path, capsys, monkeypatch
):
    # U(2,4) three times: bounded f-vector (1,), above bounds of zeros
    from tightspan import troplin

    monkeypatch.setattr(troplin, "speyer_bounds", lambda n, r: (0,) * r)
    path = _write_text(tmp_path, "c42.txt", "111111\n" * 3)
    argv = ["fvector-scan", path, "--n", "4", "--r", "2", "--lift", "corank"]
    # the suite makes the warning an error: every line fails on it
    code, out, _ = run(capsys, argv)
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert [r.get("exception") for r in records[:-1]] == ["SpeyerBoundWarning"] * 3
    assert {r["error"] for r in records[:-1]} == {
        "bounded f-vector (1,) exceeds the conjectured bound (0, 0) for (n, r) = (4, 2)"
    }
    # a plain warning: every line warns, and every record is reported
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, argv)
    assert code == 0 and out.count('"ok": true') == 3
    assert [str(w.message) for w in seen] == [records[0]["error"]] * 3


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_node_cap_below_one_is_rejected_before_any_line(files, capsys, cap):
    for argv in (
        ["fvector-scan", files["census31.txt"], "--n", "3", "--r", "1"],
        ["face-lattice", files["square.json"]],
        ["tightspan", files["fig1.json"], files["fig1h.json"]],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--node-cap", cap])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        errors = [line for line in out.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--node-cap" in errors[0] and cap in errors[0]
        assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "bad, option, value",
    [
        (["--n", "4", "--r", "7"], "--r", "7"),
        (["--n", "4", "--r", "0"], "--r", "0"),
        (["--n", "0", "--r", "2"], "--n", "0"),
        (["--n", "4", "--r", "2", "--jobs", "0"], "--jobs", "0"),
        (["--n", "4", "--r", "2", "--jobs", "-2"], "--jobs", "-2"),
    ],
)
def test_fvector_scan_bad_shape_or_jobs_is_rejected_before_any_line(
    files, capsys, tmp_path, bad, option, value
):
    out_path = tmp_path / "scan.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["fvector-scan", files["census42.txt"], "-o", str(out_path)] + bad)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not out_path.exists()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and option in errors[0] and value in errors[0]
    assert "Traceback" not in out.err


# -- fuzzing the JSON loaders ---------------------------------------------------

_number = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["1/2", "-7/3", "1/" + "9" * 40, "9" * 40 + "/7", "1/0", "0/0", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_junk = st.recursive(
    _number,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _maybe(data, value):
    """The value, or with some chance junk in its place."""
    return data.draw(_junk) if data.draw(st.integers(0, 15)) == 0 else value


def _document(data, payload):
    """JSON text of the payload, or of junk, or text that is no JSON object."""
    choice = data.draw(st.integers(0, 15))
    if choice == 0:
        return data.draw(st.sampled_from(["", "{", "[1, 2]", "null", '{"dim": 2']))
    return json.dumps(data.draw(_junk) if choice == 1 else payload)


def _fuzz_inputs(data):
    """Point configuration, heights, matroid and valuation documents: mostly
    well-shaped, so that the geometry runs, with junk in random places."""
    coord = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-7/3", "1/" + "9" * 40]))
    dim = data.draw(st.integers(0, 3))
    row = st.lists(coord, min_size=dim, max_size=dim)
    points = [_maybe(data, p) for p in data.draw(st.lists(row, max_size=6))]
    config = {"dim": _maybe(data, dim), "points": _maybe(data, points)}
    count = len(points) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
    heights = {"values": _maybe(data, [_maybe(data, data.draw(coord)) for _ in range(count)])}
    n = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(0, n))
    bases = data.draw(st.lists(st.sampled_from(list(combinations(range(n), r))), min_size=1, unique=True))
    matroid = {"n": _maybe(data, n), "bases": _maybe(data, [_maybe(data, list(b)) for b in bases])}
    values = {",".join(map(str, b)): _maybe(data, data.draw(coord)) for b in bases}
    valuation = {"values": _maybe(data, values)}
    return [_document(data, doc) for doc in (config, heights, matroid, valuation)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_json_never_shows_a_traceback(fuzz_dir, data):
    paths = []
    for name, text in zip("chmv", _fuzz_inputs(data)):
        paths.append(str(fuzz_dir / f"{name}.json"))
        Path(paths[-1]).write_text(text)
    config, heights, matroid, valuation = paths
    out = str(fuzz_dir / "out.json")
    for argv in (
        ["face-lattice", config],
        ["face-lattice", config, "--encoding", "facet"],
        ["subdivide", config, heights],
        ["tls", matroid, valuation],
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv + ["-o", out])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
