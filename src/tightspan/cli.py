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
import re
import stat
import sys
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .closure import (
    NODE_CAP,
    HasseDiagram,
    NodeCapExceeded,
    ganter_hasse,
    mask_of,
    poset_statistics,
)
from .exactgeom import (
    Fan,
    PointConfig,
    fan_closure,
    height_class,
    hull,
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
    """The text of ``path``; a file that cannot be opened or is no UTF-8
    text is an InputError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


# A number's text, in a string or as a JSON number, is what Fraction reads on
# Python 3.11: optional whitespace and sign, digits with single underscores
# between them, a "." and an exponent, or digits/digits.  An exact value
# expands its exponent, at a cost that grows with it, so one past 4300 (the
# default of sys.get_int_max_str_digits) is refused.  ``re`` compiles the
# pattern on first use, so a command that reads no number never pays for it.
MAX_DECIMAL_EXPONENT = 4300
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = (rf"\s*(?:(?P<p>[-+]?{_DIGITS})/(?P<q>{_DIGITS})|[-+]?(?=\.?\d)(?:{_DIGITS})?"
           rf"(?:\.(?:{_DIGITS})?)?(?:[eE](?P<e>[-+]?{_DIGITS}))?)\s*\Z")


def _integer(text: str) -> int:
    """An integer's text, read through ``Decimal``, which has no digit limit."""
    return int(Decimal(text))


def _number(text: str, field: str = "number") -> Decimal | Fraction:
    """The one reading of a number's text: ``p/q`` as the ``Fraction`` of two
    integers, else its exact ``Decimal``.  Other text (``abc``, ``Infinity``,
    ``1/-2``) or an exponent past MAX_DECIMAL_EXPONENT raises ValueError."""
    number = re.match(_NUMBER, text)
    if number is None:
        raise ValueError(f"{field} {text!r} is no finite decimal or p/q")
    if number["q"]:
        return Fraction(_integer(number["p"]), _integer(number["q"]))
    if number["e"] and abs(_integer(number["e"])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"number {text!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Decimal(text)


def _quoted(x) -> str:
    """A bad JSON value as its text, a number by its own digits through
    ``Decimal``, at any depth: ``2.50000000000000000001``, not ``2.5``."""
    if type(x) in (int, Decimal):
        return str(Decimal(x))
    if type(x) is list:
        return f"[{', '.join(map(_quoted, x))}]"
    if type(x) is dict:
        return "{%s}" % ", ".join(f"{_quoted(k)}: {_quoted(v)}" for k, v in x.items())
    return json.dumps(x)


def parse_rational(x, field: str) -> Fraction:
    """Exact value of a JSON entry: a JSON number or a string holding a
    number's text, both read by ``_number``, so ``0.50000000000000000001``
    keeps every digit and no part has a length limit.  Anything else (null,
    a boolean, an array, an object, ``NaN`` or ``Infinity``) raises
    ValueError naming ``field``; so does a string ``_number`` refuses."""
    if type(x) is str:
        x = _number(x, field)
    elif type(x) not in (int, Decimal):
        raise ValueError(f"{field} must be a finite number or a string, got {_quoted(x)}")
    return Fraction(x)


def parse_int(x, field: str) -> int:
    """A JSON integer; any other number or a boolean raises ValueError
    naming ``field``."""
    if type(x) is not int:
        raise ValueError(f"{field} must be an integer, got {_quoted(x)}")
    return x


def parse_list(x, field: str) -> list:
    """A JSON array; a string, an object or a scalar raises ValueError
    naming ``field`` (iterating them would read made-up entries)."""
    if type(x) is not list:
        raise ValueError(f"{field} must be an array, got {_quoted(x)}")
    return x


def parse_object(x, field: str) -> dict:
    """A JSON object; anything else raises ValueError naming ``field``."""
    if type(x) is not dict:
        raise ValueError(f"{field} must be an object, got {_quoted(x)}")
    return x


def _load(what: str, path: str, read, *args):
    """``read(doc, *args)`` of the JSON object ``doc`` in ``path``, the one
    decoding of an input file: a JSON number becomes the int or ``Decimal`` of
    its text, never a float.  Each fault is an InputError, reported in this
    order: a text that is no JSON (or nests too deeply, or has a number
    beyond the exponent guard), a text that is no JSON object, a key given
    twice in any object, then the first field missing or of wrong shape."""
    text = _read(path)
    repeated = []  # keys given twice, in the order their objects close

    def unique_keys(pairs: list) -> dict:
        out = dict(pairs)
        if len(out) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated.append(next(k for i, k in enumerate(keys) if k in keys[:i]))
        return out

    try:
        doc = json.loads(text, parse_float=_number, parse_int=_integer,
                         object_pairs_hook=unique_keys)
        if type(doc) is not dict:
            raise ValueError("expected a JSON object")
        if repeated:
            raise ValueError(f"key {repeated[0]!r} appears twice")
        return read(doc, *args)
    except ZeroDivisionError as exc:
        raise InputError(f"bad {what} in {path}: a fraction has denominator 0") from exc
    except KeyError as exc:
        raise InputError(f'bad {what} in {path}: missing key "{exc.args[0]}"') from exc
    except (AttributeError, RecursionError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} in {path}: {exc}") from exc


def _rows(x, field: str, row: str, entry: str, parse=parse_int) -> tuple:
    """An array of arrays of ``parse``d entries, as a tuple of tuples; a
    fault names its level: ``field``, ``row`` or ``entry``."""
    return tuple(
        tuple([parse(v, entry) for v in parse_list(r, row)]) for r in parse_list(x, field)
    )


def _points(doc: dict) -> PointConfig:
    """``{"dim": d, "points": [[rational, ...], ...]}``."""
    points = _rows(doc["points"], "points", "point", "point entry", parse_rational)
    return PointConfig(dim=parse_int(doc["dim"], "dim"), points=points)


def _heights(doc: dict) -> list:
    """``{"values": [rational, ...]}``, one height per point."""
    return [parse_rational(x, "height") for x in parse_list(doc["values"], "values")]


def _matroid(doc: dict) -> Matroid:
    """``{"n": n, "r": r, "bases": [[index, ...], ...]}``; ``r`` may be
    left out, and when given it must be the size of the bases."""
    n = parse_int(doc["n"], "n")
    m = Matroid.from_bases(n, _rows(doc["bases"], "bases", "basis", "basis index"))
    if "r" in doc and parse_int(doc["r"], "r") != m.r:
        raise ValueError(f"stated rank r = {_quoted(doc['r'])} differs from the basis size {m.r}")
    return m


def _fan(doc: dict) -> Fan:
    """``{"rays": [[int, ...], ...], "cones": [[ray index, ...], ...],
    "lineality": [[int, ...], ...]}``; the lineality may be left out."""
    return Fan(
        rays=_rows(doc["rays"], "rays", "ray", "ray entry"),
        maximal_cones=_rows(doc["cones"], "cones", "cone", "cone index"),
        lineality=_rows(doc.get("lineality", []), "lineality", "lineality vector",
                        "lineality entry"),
    )


def _valuation(doc: dict, owner: Matroid) -> Valuation:
    """``{"values": {"i,j,...": rational}}``.  Each key lists a basis of
    ``owner`` by its indices in increasing order, and no basis twice; any
    other key raises ValueError naming it."""
    values = {}
    for key, val in parse_object(doc["values"], "values").items():
        try:
            idx = [int(t) for t in key.split(",")] if key else []
        except ValueError:
            raise ValueError(
                f"valuation key {key!r} is not a comma-joined list of indices"
            ) from None
        if any(not 0 <= i < owner.n for i in idx):
            raise ValueError(f"valuation key {key!r} has an index outside 0..{owner.n - 1}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(
                f"valuation key {key!r} does not list distinct indices in increasing order"
            )
        basis = mask_of(idx)
        if basis not in owner.bases:
            raise ValueError(f"valuation key {key!r} is not a basis of the matroid")
        if basis in values:
            raise ValueError(f"valuation key {key!r} names a basis given before")
        values[basis] = parse_rational(val, "value")
    return Valuation(owner=owner, values=values)


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
    config = _load("point configuration", args.input, _points)
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
    fan = _load("fan", args.input, _fan)
    try:
        system = fan_closure(fan)
    except ValueError as exc:
        raise InputError(f"bad fan in {args.input}: {exc}") from exc
    diagram = ganter_hasse(system, node_cap=args.node_cap)
    names = [f"r{i}" for i in range(len(fan.rays))] + ["inf"]  # inf: the artificial top
    _emit(_diagram_output(diagram, args.format, name=names.__getitem__), args.output)
    return 0


def cmd_flats(args) -> int:
    m = _load("matroid", args.input, _matroid)
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


def _lifted_subdivision(args):
    """The regular subdivision of the points file lifted by the heights
    file, ``{"values": [...]}`` with one rational per point."""
    config = _load("point configuration", args.points, _points)
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
    m = _load("matroid", args.matroid, _matroid)
    v = _load("valuation", args.valuation, _valuation, m)
    vm = ValuatedMatroid(valuation=v)
    tls = tropical_linear_space(vm, node_cap=args.node_cap)
    _emit(_tls_output(tls, args.format), args.output)
    return 0


def cmd_bergman(args) -> int:
    m = _load("matroid", args.input, _matroid)
    tls = bergman_fan(m, node_cap=args.node_cap)
    _emit(_tls_output(tls, args.format), args.output)
    return 0


def cmd_corank_lift(args) -> int:
    m = _load("matroid", args.input, _matroid)
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
        _emptied(out).write(_dumps(v.as_dict()))
        if fh is not None:
            _emptied(fh).write(_dumps(v.owner.as_dict()))
    return 0


def _scan_line(lineno: int, line: str, args, outcomes: dict) -> dict:
    """The record of one census line.  ``outcomes`` holds the command's
    line outcomes, each a report or a node-cap abort, keyed by
    (configuration, height class).  Adding an affine function to the
    heights or scaling them by a positive number changes neither the
    subdivision nor the gate's verdict (both sides of each exchange
    inequality sum the same two characteristic vectors), so a hit runs no
    double description and no gate; the configuration fixes gamma, n, r,
    the lineality and the base hull, so the report too.  Under the trivial
    lift every height class is the zero class, and the configuration alone
    is the key.  The 171 lines of census_n5_r3.txt fall into 26 classes
    under the corank lift."""
    record = {"line": lineno}
    try:
        m = parse_census_line(line, args.n, args.r, order=args.order)
        # the configuration fixes the owner's loops, the coordinates zero on
        # every point, so a hit has passed the loop check of the line before
        if args.lift == "corank":
            v = corank_valuation(m)
            config = v.owner.polytope()
            key = (config, height_class(config, v.heights()))
        else:
            key = (m.polytope(), ())
        outcome = outcomes.get(key)
        if outcome is None:
            vm = ValuatedMatroid(valuation=v) if args.lift == "corank" else bergman_source(m)
            try:
                outcome = dict(tropical_linear_space(vm, node_cap=args.node_cap).report, ok=True)
            except NodeCapExceeded as exc:
                outcome = {"ok": False, "error": str(exc), "node_cap": True}
            outcomes[key] = outcome
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


def cmd_fvector_scan(args) -> int:
    lines = _read(args.census).splitlines()
    outcomes = {}  # this command's alone: no command reuses another's work
    ok = failed = crashed = 0
    with _open_output(args.output) as out:
        _emptied(out)
        for i, line in enumerate(lines):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rec = _scan_line(i, line, args, outcomes)
            # written as soon as it is done, so a scan cut short keeps it
            out.write(_scan_record_text(rec, args.format))
            out.flush()
            if rec.get("ok"):
                ok += 1
            else:
                failed += 1
                crashed += "exception" in rec
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


@lru_cache(maxsize=1)  # reads no input; argparse formats help afresh per call
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
    # a scan runs in one process; the flag stays for callers that pass 1
    p.add_argument("--jobs", choices=("1",), default="1")
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
