"""Command-line driver for batch lattice, subdivision and f-vector studies.

All reports are JSON (line-delimited for scans) so they can be piped into
statistics; ``--format pretty`` renders small human-readable tables.
Exit codes: 0 success, 1 input or validation error, 2 bad command-line
arguments (from argparse), 3 node cap reached.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import nullcontext

from .closure import NODE_CAP, HasseDiagram, NodeCapExceeded, ganter_hasse, poset_statistics
from .exactgeom import (
    Fan,
    PointConfig,
    fan_closure,
    hull,
    parse_list,
    parse_rational,
    polytope_closure_facet,
    polytope_closure_vertex,
)
from .matroid import (
    Matroid,
    Valuation,
    corank_valuation,
    is_hypersimplex_subset,
    non_matroidal_witness,
    parse_census_line,
)
from .subdivision import coordinatize, regular_subdivision
from .troplin import (
    ValuatedMatroid,
    _check_speyer,
    _loop_faces,
    bergman_fan,
    bergman_source,
    tropical_linear_space,
)


class InputError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _open_output(path: str | None):
    """Context manager for the output stream: stdout, or ``path`` opened
    for writing with its old contents still in place (``_emptied`` drops
    them), so a caller can open every destination before it changes any.
    A path that cannot be opened is an InputError."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _regular_stat(fh):
    """``os.fstat`` of the regular file behind ``fh``; None for a device, a
    pipe or a stream with no file descriptor."""
    try:
        st = os.fstat(fh.fileno())
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None
    return st if stat.S_ISREG(st.st_mode) else None


def _emptied(fh):
    """``fh`` with the old contents of a regular file dropped, as opening
    it with mode "w" would; stdout, a device or a pipe is left as it is."""
    if fh is not sys.stdout and _regular_stat(fh):
        fh.truncate(0)
    return fh


def _emit(text: str, out_path: str | None) -> None:
    with _open_output(out_path) as fh:
        _emptied(fh).write(text)


def _dumps(doc: dict) -> str:
    """The one JSON rendering of every report: sorted keys, one line."""
    return json.dumps(doc, sort_keys=True) + "\n"


def _load(what: str, path: str, parse):
    """Parse the JSON object in ``path``; a file that is not a JSON object,
    lacks a key, holds a value of the wrong shape or nests too deeply for
    the decoder is an InputError."""
    text = _read(path)
    try:
        try:
            return parse(text)
        except Exception:
            # decode again, on failure only, so that a text that is no JSON
            # object is reported as such before any fault of its fields
            if not isinstance(json.loads(text), dict):
                raise ValueError("expected a JSON object") from None
            raise
    except ZeroDivisionError as exc:
        raise InputError(f"bad {what} in {path}: a fraction has denominator 0") from exc
    except KeyError as exc:
        raise InputError(f'bad {what} in {path}: missing key "{exc.args[0]}"') from exc
    except (AttributeError, RecursionError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} in {path}: {exc}") from exc


def _diagram_output(diagram: HasseDiagram, fmt: str, f_vec=None, name=str) -> str:
    if fmt == "dot":
        return diagram.to_dot(name)
    if fmt == "pretty":
        lines = [
            f"nodes: {len(diagram.nodes)}",
            f"arcs:  {len(diagram.arcs)}",
        ]
        if f_vec is not None:
            lines.append(f"f-vector: {tuple(f_vec)}")
        return "\n".join(lines) + "\n"
    doc = diagram.as_dict()
    if f_vec is not None:
        doc["f_vector"] = list(f_vec)
    return _dumps(doc)


def _face_lattice_f_vector(diagram: HasseDiagram, inverted: bool) -> list[int]:
    height = dict(zip(diagram.nodes, diagram.heights()))
    counts = poset_statistics(diagram, height.__getitem__)
    inner = counts[1:-1] if len(counts) > 2 else []
    return inner[::-1] if inverted else inner


def cmd_face_lattice(args) -> int:
    config = _load("point configuration", args.input, PointConfig.from_json)
    hrep, inc, flags = hull(config)
    if args.encoding == "vertex":
        system = polytope_closure_vertex(inc.restricted_to(flags))
        inverted, prefix = False, "v"
    else:
        if not hrep.facets:
            raise InputError("facet encoding needs a polytope with facets")
        system = polytope_closure_facet(inc)
        inverted, prefix = True, "f"
    diagram = ganter_hasse(system, node_cap=args.node_cap)
    f_vec = _face_lattice_f_vector(diagram, inverted)
    _emit(_diagram_output(diagram, args.format, f_vec, lambda i: f"{prefix}{i}"), args.output)
    return 0


def cmd_fan_lattice(args) -> int:
    fan = _load("fan", args.input, Fan.from_json)
    try:
        system = fan_closure(fan)
    except ValueError as exc:
        raise InputError(f"bad fan in {args.input}: {exc}") from exc
    diagram = ganter_hasse(system, node_cap=args.node_cap)
    names = [f"r{i}" for i in range(len(fan.rays))] + ["inf"]  # inf: the artificial top
    _emit(_diagram_output(diagram, args.format, name=names.__getitem__), args.output)
    return 0


def cmd_flats(args) -> int:
    m = _load("matroid", args.input, Matroid.from_json)
    diagram = ganter_hasse(m.closure_system(), node_cap=args.node_cap)
    f_vec = poset_statistics(diagram, m.rank)
    _emit(_diagram_output(diagram, args.format, f_vec), args.output)
    return 0


def _subdivision_payload(sub) -> dict:
    payload = sub.as_dict()
    if not is_hypersimplex_subset(sub.config.points):  # the gate gives no verdict
        payload.update(matroidal=None, witness_edge=None)
        return payload
    witness = non_matroidal_witness(sub)
    payload["matroidal"] = witness is None
    payload["witness_edge"] = None if witness is None else [str(x) for x in witness[1]]
    return payload


def _heights(text: str) -> list:
    return [parse_rational(x) for x in parse_list(json.loads(text)["values"], "values")]


def _lifted_subdivision(args):
    """The regular subdivision of the points file lifted by the heights
    file, ``{"values": [...]}`` with one rational per point."""
    config = _load("point configuration", args.points, PointConfig.from_json)
    heights = _load("height function", args.heights, _heights)
    if len(heights) != len(config.points):
        raise InputError(
            f"bad height function in {args.heights}: its length {len(heights)} "
            f"does not match the {len(config.points)} points of {args.points}"
        )
    return regular_subdivision(config, heights)


def cmd_subdivide(args) -> int:
    sub = _lifted_subdivision(args)
    _emit(_dumps(_subdivision_payload(sub)), args.output)
    return 0


def _gamma_for(sub, mode: str):
    if mode == "none":
        return []
    if mode == "all":
        return list(sub.boundary_facets)
    # mode == "loops", the last of the parser's choices
    zero_one = all(x in (0, 1) for p in sub.config.points for x in p)
    if not zero_one:
        raise InputError("--gamma loops needs a 0/1 point configuration")
    return _loop_faces(sub.config)


def cmd_tightspan(args) -> int:
    sub = _lifted_subdivision(args)
    span = coordinatize(sub, _gamma_for(sub, args.gamma), node_cap=args.node_cap)
    _emit(_dumps(span.as_dict(quotient=args.quotient == "on")), args.output)
    return 0


def _tls_output(tls, fmt: str) -> str:
    if fmt == "pretty":
        rep = tls.report
        lines = [
            f"(n, r) = ({rep['n']}, {rep['r']})",
            f"dim: {rep['dim']}   lineality dim: {rep['lineality_dim']}",
            f"f-vector:         {tuple(rep['f_vector'])}",
            f"bounded f-vector: {tuple(rep['bounded_f_vector'])}",
            f"conjectured bound:{tuple(rep['speyer_bounds'])}",
            f"within bound:     {all(rep['within_bound'])}",
        ]
        return "\n".join(lines) + "\n"
    return _dumps(tls.as_dict())


def cmd_tls(args) -> int:
    m = _load("matroid", args.matroid, Matroid.from_json)
    v = _load("valuation", args.valuation, lambda text: Valuation.from_json(m, text))
    vm = ValuatedMatroid(valuation=v)
    tls = tropical_linear_space(vm, node_cap=args.node_cap)
    _emit(_tls_output(tls, args.format), args.output)
    return 0


def cmd_bergman(args) -> int:
    m = _load("matroid", args.input, Matroid.from_json)
    tls = bergman_fan(m, node_cap=args.node_cap)
    _emit(_tls_output(tls, args.format), args.output)
    return 0


def cmd_corank_lift(args) -> int:
    m = _load("matroid", args.input, Matroid.from_json)
    if m.r == 0:
        raise InputError(
            f"bad matroid in {args.input}: it has rank 0, and a corank lift needs rank 1 or more"
        )
    v = corank_valuation(m)
    # both destinations open before either is emptied: a bad path changes none
    with _open_output(args.output) as out, (
        _open_output(args.emit_uniform) if args.emit_uniform else nullcontext()
    ) as fh:
        if fh is not None:
            a, b = _regular_stat(out), _regular_stat(fh)
            if a and b and os.path.samestat(a, b):
                raise InputError(f"-o and --emit-uniform both name {args.emit_uniform}")
        _emptied(out).write(v.to_json() + "\n")
        if fh is not None:
            _emptied(fh).write(v.owner.to_json() + "\n")
    return 0


# The line outcomes of the scan command running in this process, each a
# report or a node-cap abort, keyed by (configuration, maximal cells),
# which fix a report: the boundary facets follow from the cells and the
# configuration's base hull, and gamma, n, r and the lineality from the
# configuration.  A census file holds few distinct subdivisions (26 among
# the 171 lines of census_n5_r3.txt under the corank lift).  Emptied when a
# scan starts and ends, so no command reuses another's work; each worker
# keeps its own.
_line_reports: dict = {}


def _scan_line(task) -> dict:
    lineno, line, n, r, order, lift, node_cap = task
    record = {"line": lineno}
    try:
        m = parse_census_line(line, n, r, order=order)
        if lift == "corank":
            vm = ValuatedMatroid(valuation=corank_valuation(m))
        else:
            vm = bergman_source(m)
        # a key fixes the owner's loops, the coordinates zero on every
        # point, so a hit has passed tropical_linear_space's loop check
        sub = vm.subdivision
        key = (sub.config, sub.maximal_cells)
        outcome = _line_reports.get(key)
        if outcome is None:
            try:
                outcome = dict(tropical_linear_space(vm, node_cap=node_cap).report, ok=True)
            except NodeCapExceeded as exc:
                outcome = {"ok": False, "error": str(exc), "node_cap": True}
            _line_reports[key] = outcome
        elif outcome["ok"]:
            _check_speyer(outcome)  # tropical_linear_space checks the first line
        record.update(outcome)
    except ValueError as exc:  # MatroidError among them
        record.update(ok=False, error=str(exc))
    except Exception as exc:  # a fault on one line must not lose the others
        import traceback

        traceback.print_exc(file=sys.stderr)
        record.update(ok=False, error=str(exc), exception=type(exc).__name__)
    return record


def _scan_record_text(rec: dict, fmt: str) -> str:
    if fmt != "pretty":
        return _dumps(rec)
    if rec.get("ok"):
        return (
            f"line {rec['line']:4d}  bounded {tuple(rec['bounded_f_vector'])}"
            f"  f {tuple(rec['f_vector'])}\n"
        )
    if "exception" in rec:
        return f"line {rec['line']:4d}  FAILED ({rec['exception']}): {rec['error']}\n"
    status = "CAPPED" if rec.get("node_cap") else "SKIPPED"
    return f"line {rec['line']:4d}  {status}: {rec['error']}\n"


def _scan_records(tasks, jobs: int):
    """Records of the census lines in line order, each yielded as soon as
    it and all lines before it are done, so that a scan cut short keeps
    what it has already written.  At most one worker per line starts."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        from multiprocessing import Pool  # 4.5 ms to import, for a pool only

        with Pool(workers) as pool:
            yield from pool.imap(_scan_line, tasks)
    else:
        yield from map(_scan_line, tasks)


def cmd_fvector_scan(args) -> int:
    text = _read(args.census)
    tasks = [
        (i, ln.strip(), args.n, args.r, args.order, args.lift, args.node_cap)
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    ok = failed = crashed = 0
    with _open_output(args.output) as out:
        _emptied(out)
        _line_reports.clear()
        try:
            for rec in _scan_records(tasks, args.jobs):
                out.write(_scan_record_text(rec, args.format))
                out.flush()
                if rec.get("ok"):
                    ok += 1
                else:
                    failed += 1
                    crashed += "exception" in rec
        finally:
            _line_reports.clear()
        if args.format == "pretty":
            out.write(f"summary: {ok} ok, {failed} failed\n")
        else:
            out.write(_dumps({"summary": {"ok": ok, "failed": failed}}))
    if crashed:
        print(
            f"error: {crashed} census line(s) raised an unexpected exception; "
            'see the records with an "exception" key',
            file=sys.stderr,
        )
        return 1
    return 0


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tightspan",
        description="Hasse diagrams of closure systems, polytope duals and "
        "tropical linear spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("json", "dot", "pretty")):
        p.add_argument("--format", choices=fmt_choices, default="json")
        p.add_argument("--node-cap", type=_positive_int, default=NODE_CAP)
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("face-lattice", help="face lattice of a polytope")
    p.add_argument("input")
    p.add_argument("--encoding", choices=("vertex", "facet"), default="vertex")
    common(p)
    p.set_defaults(func=cmd_face_lattice)

    p = sub.add_parser("fan-lattice", help="face lattice of a polyhedral fan")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_fan_lattice)

    p = sub.add_parser("flats", help="lattice of flats of a matroid")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_flats)

    p = sub.add_parser("subdivide", help="regular subdivision of lifted points")
    p.add_argument("points")
    p.add_argument("heights")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("tightspan", help="coordinatized extended tight span")
    p.add_argument("points")
    p.add_argument("heights")
    p.add_argument("--gamma", choices=("all", "loops", "none"), default="none")
    p.add_argument("--quotient", choices=("on", "off"), default="on")
    p.add_argument("--node-cap", type=_positive_int, default=NODE_CAP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_tightspan)

    p = sub.add_parser("tls", help="tropical linear space of a valuated matroid")
    p.add_argument("matroid")
    p.add_argument("valuation")
    common(p, fmt_choices=("json", "pretty"))
    p.set_defaults(func=cmd_tls)

    p = sub.add_parser("bergman", help="Bergman fan (trivial valuation)")
    p.add_argument("input")
    common(p, fmt_choices=("json", "pretty"))
    p.set_defaults(func=cmd_bergman)

    p = sub.add_parser("corank-lift", help="corank valuation on the uniform matroid")
    p.add_argument("input")
    p.add_argument("--emit-uniform", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_corank_lift)

    p = sub.add_parser("fvector-scan", help="f-vector report per census line")
    p.add_argument("census")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--order", choices=("lex", "revlex"), default="lex")
    p.add_argument("--lift", choices=("trivial", "corank"), default="trivial")
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p, fmt_choices=("json", "pretty"))
    p.set_defaults(func=cmd_fvector_scan)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fvector-scan" and args.r > args.n:
        parser.error(f"argument --r: must be at most --n {args.n}, got {args.r}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so that the flush at exit fails no more, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NodeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # InputError, MatroidError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
