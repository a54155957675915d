"""Tests of the benchmark itself: its checks catch wrong answers, its
generators make what they claim, and its tracing leaves the program as
it found it.  Run from the checkout root with
``PYTHONPATH=src python3 -m pytest bench``."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import run
import spans
import workloads as W

run.import_program()

from tightspan import cli, closure, matroid  # noqa: E402


def _tally_pass(workload, state):
    tally = W.Tally()
    workload.run_pass(state, 0, tally)
    return tally


def _fake_cli(write):
    """A stand-in for cli.main that writes ``write(argv)`` to the -o file."""
    def main(argv):
        out = argv[argv.index("-o") + 1]
        with open(out, "wb") as fh:
            fh.write(write(argv))
        return 0

    return main


def _tls_bytes(f_vector, bounded):
    return json.dumps({"f_vector": f_vector, "bounded_f_vector": bounded,
                       "within_bound": [True] * len(bounded)}).encode()


def test_flagship_check_counts_tampered_f_vector(tmp_path, monkeypatch):
    state = W.Flagship().setup(run.ROOT, str(tmp_path), 0)
    good = _tls_bytes(W.FLAGSHIP_F_VECTOR, W.FLAGSHIP_BOUNDED_F_VECTOR)
    monkeypatch.setattr(cli, "main", _fake_cli(lambda argv: good))
    assert _tally_pass(W.Flagship(), state).failed == 0
    tampered = _tls_bytes([14, 80, 172, 140], W.FLAGSHIP_BOUNDED_F_VECTOR)
    monkeypatch.setattr(cli, "main", _fake_cli(lambda argv: tampered))
    assert _tally_pass(W.Flagship(), state).failed == 1


def test_stiefel_check_counts_tampered_bounded_f_vector(tmp_path, monkeypatch):
    state = W.StiefelGeneric().setup(run.ROOT, str(tmp_path), 7)
    tampered = _tls_bytes([15, 60, 66], [15, 21, 6])
    monkeypatch.setattr(cli, "main", _fake_cli(lambda argv: tampered))
    assert _tally_pass(W.StiefelGeneric(), state).failed == 1


def _scan_bytes(flip: bool) -> bytes:
    rec = {"ok": True, "within_bound": [True, True]}
    body = "".join(json.dumps(dict(rec, line=i)) + "\n" for i in range(W.CENSUS_LINES))
    body += json.dumps({"summary": {"failed": 0, "ok": W.CENSUS_LINES}}) + "\n"
    raw = body.encode()
    # one byte changed, and the records still parse and read ok
    return raw.replace(b'"line": 5}', b'"line": 6}') if flip else raw


def test_census_check_counts_one_changed_byte(tmp_path, monkeypatch):
    good = _scan_bytes(False)
    digest = hashlib.sha256(good).hexdigest()
    assert W.check_scan_output(good, digest)
    assert not W.check_scan_output(_scan_bytes(True), digest)

    monkeypatch.setattr(W, "CENSUS_FILES", {k: (r, digest) for k, (r, _) in W.CENSUS_FILES.items()})
    state = W.CensusScan().setup(run.ROOT, str(tmp_path), 0)
    outputs = iter([good, _scan_bytes(True)])
    monkeypatch.setattr(cli, "main", _fake_cli(lambda argv: next(outputs)))
    tally = _tally_pass(W.CensusScan(), state)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_missing_output_counts_failed(tmp_path, monkeypatch):
    workload = W.Flagship()
    state = workload.setup(run.ROOT, str(tmp_path), 0)
    good = _tls_bytes(W.FLAGSHIP_F_VECTOR, W.FLAGSHIP_BOUNDED_F_VECTOR)
    monkeypatch.setattr(cli, "main", _fake_cli(lambda argv: good))
    assert _tally_pass(workload, state).failed == 0
    # a second pass that writes nothing must not be judged on the first's file
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    assert _tally_pass(workload, state).failed == 1


def test_boolean_check_counts_missing_arc():
    diagram = closure.ganter_hasse(closure.ClosureSystem(closure.GroundSet(5), W._identity))
    assert W.check_boolean(diagram, 5)
    diagram.arcs.pop()
    assert not W.check_boolean(diagram, 5)


def test_raised_exception_fails_the_run(monkeypatch, capsys):
    def broken(system, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(closure, "ganter_hasse", broken)
    result = run.run("boolean-lattice", 0, 0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_share" in capsys.readouterr().err


def test_boolean_run_end_to_end():
    result = run.run("boolean-lattice", 0, 0.01, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_flagship_valuation_is_the_corank_lift():
    from tightspan import Matroid, corank_valuation

    u12 = Matroid.uniform(1, 2)
    power = u12.direct_sum(u12).direct_sum(u12).direct_sum(u12)
    assert json.loads(corank_valuation(power).to_json()) == W.flagship_valuation()


def test_stiefel_generator_is_seeded_and_generic():
    a = W.stiefel_valuations(3, 2)
    assert a == W.stiefel_valuations(3, 2) != W.stiefel_valuations(4, 2)
    assert len(a[0]["values"]) == 35
    assert W.tropical_minors([[0, 0, 1], [0, 0, 2]], 2, 3) is None


def test_generic_bound_matches_speyer():
    from tightspan import speyer_bounds

    for n, r in ((6, 3), (7, 3), (8, 3), (8, 4)):
        assert tuple(W.generic_bounded_f_vector(n, r)) == speyer_bounds(n, r)


def test_tracing_records_layers_and_restores_the_program(tmp_path):
    originals = (matroid.hull, closure.ClosureSystem.close, cli.main)
    recorder = spans.Recorder()
    m = tmp_path / "m.json"
    m.write_text(json.dumps(W._uniform_json(2, 4)))
    with spans.traced(recorder):
        recorder.begin_pass()
        assert cli.main(["bergman", str(m), "-o", str(tmp_path / "out.json")]) == 0
    assert (matroid.hull, closure.ClosureSystem.close, cli.main) == originals

    (metrics,) = recorder.pass_metrics()
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["exactgeom.hull.calls"] >= 2
    assert metrics["matroid.gate.calls"] == metrics["subdivision.regular_subdivision.calls"] == 1
    assert metrics["closure.nodes"] > 0 and metrics["closure.close.calls"] > 0
    assert 0 < metrics["cli.self_s"] < metrics["cli.main.s"]
    names = {s["id"]: s["name"] for s in recorder.spans}
    parents = {(s["name"], names.get(s["parent"])) for s in recorder.spans}
    assert ("closure.ganter_hasse", "subdivision.coordinatize") in parents
    assert ("exactgeom.hull", "matroid.gate") in parents

    path = tmp_path / "spans.json"
    recorder.dump(str(path))
    assert json.loads(path.read_text())["spans"]


def test_benchmark_json_and_notes_match_the_metrics_printed():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    with open(os.path.join(run.ROOT, "bench", "notes.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    assert sorted(m for layer in layers for m in layer["metrics"]) == sorted(spans.PER_LAYER)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_setup_is_deterministic(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    W.WORKLOADS[name].setup(run.ROOT, str(a), 11)
    W.WORKLOADS[name].setup(run.ROOT, str(b), 11)
    for f in os.listdir(a):
        assert (a / f).read_bytes() == (b / f).read_bytes()
