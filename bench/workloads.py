"""The benchmark's four workloads: inputs, one timed pass, known answers.

Each workload writes its inputs in ``setup`` and runs them in ``run_pass``.
A pass is a list of items; each item is one call into the program, timed
on its own, followed by a check of its output against an answer the
benchmark knows without asking the program.  An item that raises, exits
non-zero or gives a wrong answer counts as failed.

The program is reached only through ``tightspan.cli.main(argv)`` (with
``-o`` into the run's work directory) and, for the Boolean lattice,
``tightspan.closure.ganter_hasse``.  Modules are looked up at call time so
that the tracing wrappers in ``spans.py`` see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time
import traceback
from math import comb

# -- known answers ------------------------------------------------------------

FLAGSHIP_F_VECTOR = [14, 80, 172, 141]
FLAGSHIP_BOUNDED_F_VECTOR = [14, 24, 12, 1]

# sha256 of `tightspan fvector-scan <file> --n 5 --r R --lift corank --jobs 1`
# output, as first produced by this repository's initial implementation.
CENSUS_FILES = {
    "census_n5_r2.txt": (2, "c0691a7426b3e5c0baaad48d71169b0e1c24ece800bd13b67636ce9b534184e4"),
    "census_n5_r3.txt": (3, "0a8ccc14e366c61321c9135c3fe9242921ae39a9265a9708acc5381d72fbed67"),
}
CENSUS_LINES = 171

STIEFEL_R, STIEFEL_N = 3, 7
STIEFEL_ENTRY_MAX = 10**6
STIEFEL_POOL = 32  # instances generated per run; passes cycle through them

BOOLEAN_K = 16


def generic_bounded_f_vector(n: int, r: int) -> list[int]:
    """C(n-2i, r-i) * C(n-i-1, i-1) for i = 1..r: the bounded f-vector of
    the tropical linear space of a generic realizable valuated matroid."""
    return [comb(n - 2 * i, r - i) * comb(n - i - 1, i - 1) for i in range(1, r + 1)]


def check_tls_output(data: dict, f_vector, bounded) -> bool:
    """The `tls` report has the expected f-vectors and lies within the bound."""
    return (
        (f_vector is None or data.get("f_vector") == list(f_vector))
        and data.get("bounded_f_vector") == list(bounded)
        and all(data.get("within_bound", [False]))
    )


def check_scan_output(raw: bytes, digest: str) -> bool:
    """Every census record is ok and within the bound, and the bytes match."""
    if hashlib.sha256(raw).hexdigest() != digest:
        return False
    records = [json.loads(line) for line in raw.decode().splitlines()]
    body, summary = records[:-1], records[-1]
    return (
        len(body) == CENSUS_LINES
        and all(rec.get("ok") and all(rec["within_bound"]) for rec in body)
        and summary == {"summary": {"failed": 0, "ok": CENSUS_LINES}}
    )


def check_boolean(diagram, k: int) -> bool:
    """The power set of [k] has 2^k closed sets and k * 2^(k-1) covers."""
    return len(diagram.nodes) == 2**k and len(diagram.arcs) == k * 2 ** (k - 1)


# -- input generators -----------------------------------------------------------

def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return path


def _uniform_json(r: int, n: int) -> dict:
    return {"n": n, "r": r, "bases": [list(b) for b in itertools.combinations(range(n), r)]}


def flagship_valuation(pairs: int = 4) -> dict:
    """Corank lift of U(1,2)^pairs: on U(pairs, 2 pairs), a basis B gets
    pairs minus the number of parallel pairs {2j, 2j+1} that B meets."""
    n, r = 2 * pairs, pairs
    values = {}
    for basis in itertools.combinations(range(n), r):
        met = len({i // 2 for i in basis})
        values[",".join(map(str, basis))] = str(r - met)
    return {"n": n, "r": r, "values": values}


def tropical_minors(matrix, r: int, n: int):
    """Min-plus maximal minors of an r x n matrix keyed by "i,j,k", or None
    when some minimum is attained by two permutations (matrix not generic)."""
    perms = list(itertools.permutations(range(r)))
    values = {}
    for cols in itertools.combinations(range(n), r):
        sums = sorted(sum(matrix[i][cols[p[i]]] for i in range(r)) for p in perms)
        if sums[0] == sums[1]:
            return None
        values[",".join(map(str, cols))] = str(sums[0])
    return values


def stiefel_valuations(seed: int, count: int, r: int = STIEFEL_R, n: int = STIEFEL_N):
    """``count`` tropical Plücker vectors of generic random integer matrices
    with entries in [0, STIEFEL_ENTRY_MAX], drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        matrix = [[rng.randint(0, STIEFEL_ENTRY_MAX) for _ in range(n)] for _ in range(r)]
        values = tropical_minors(matrix, r, n)
        if values is not None:
            out.append({"n": n, "r": r, "values": values})
    return out


# -- workloads ------------------------------------------------------------------

class Tally:
    """Items attempted and failed across the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def item(self, call, check) -> float:
        """Time ``call()``; count it failed if it raises or ``check`` rejects
        its result.  Returns the call's wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # a failing item must not end the run
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            ok = check(result)
        except Exception:  # malformed output is a wrong answer
            traceback.print_exc()
            ok = False
        self.failed += not ok
        return elapsed


def _cli(argv):
    from tightspan import cli

    return cli.main(argv)


def _fresh(path):
    """Remove a previous pass's output so a run that writes none is caught."""
    if os.path.exists(path):
        os.remove(path)
    return path


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# Each workload's ``arcs`` is the number of Hasse arcs one pass produces,
# the denominator of us_per_arc; the traced run recounts it as closure.arcs.

class Flagship:
    name = "flagship-d48"
    seeded = False
    arcs = 1239

    def setup(self, root, workdir, seed):
        return {
            "matroid": _write_json(os.path.join(workdir, "u48.json"), _uniform_json(4, 8)),
            "valuation": _write_json(os.path.join(workdir, "corank.json"), flagship_valuation()),
            "out": os.path.join(workdir, "tls.json"),
        }

    def run_pass(self, state, index, tally):
        argv = ["tls", state["matroid"], state["valuation"], "-o", _fresh(state["out"])]
        return tally.item(
            lambda: _cli(argv),
            lambda rc: rc == 0
            and check_tls_output(
                _read_json(state["out"]), FLAGSHIP_F_VECTOR, FLAGSHIP_BOUNDED_F_VECTOR
            ),
        )


class CensusScan:
    name = "census-scan"
    seeded = False
    arcs = 2561 + 9096  # fixed by the digest-checked outputs of the two files

    def setup(self, root, workdir, seed):
        files = []
        for fname, (r, digest) in CENSUS_FILES.items():
            path = os.path.join(root, "data", "census", fname)
            if not os.path.isfile(path):
                raise FileNotFoundError(f"census input {path} is missing")
            out = os.path.join(workdir, fname.replace(".txt", ".jsonl"))
            files.append((path, r, digest, out))
        return {"files": files}

    def run_pass(self, state, index, tally):
        total = 0.0
        for path, r, digest, out in state["files"]:
            argv = ["fvector-scan", path, "--n", "5", "--r", str(r),
                    "--lift", "corank", "--jobs", "1", "-o", _fresh(out)]
            total += tally.item(
                lambda: _cli(argv),
                lambda rc: rc == 0 and check_scan_output(_read_bytes(out), digest),
            )
        return total


class StiefelGeneric:
    name = "stiefel-generic"
    seeded = True
    # f-vector (10, 40, 45) and every edge in three 2-cells: the root's 10
    # vertex arcs, 12 * 2 + 28 * 1 vertex-edge, 40 * 3 edge-face, 45 to the top
    arcs = 10 + 52 + 120 + 45

    def setup(self, root, workdir, seed):
        paths = [
            _write_json(os.path.join(workdir, f"stiefel{i}.json"), v)
            for i, v in enumerate(stiefel_valuations(seed, STIEFEL_POOL))
        ]
        return {
            "matroid": _write_json(
                os.path.join(workdir, "u37.json"), _uniform_json(STIEFEL_R, STIEFEL_N)
            ),
            "valuations": paths,
            "out": os.path.join(workdir, "tls.json"),
            "bounded": generic_bounded_f_vector(STIEFEL_N, STIEFEL_R),
        }

    def run_pass(self, state, index, tally):
        valuation = state["valuations"][index % len(state["valuations"])]
        argv = ["tls", state["matroid"], valuation, "-o", _fresh(state["out"])]
        return tally.item(
            lambda: _cli(argv),
            lambda rc: rc == 0
            and check_tls_output(_read_json(state["out"]), None, state["bounded"]),
        )


class BooleanLattice:
    name = "boolean-lattice"
    seeded = False
    arcs = BOOLEAN_K * 2 ** (BOOLEAN_K - 1)

    def setup(self, root, workdir, seed):
        from tightspan import closure

        return {"system": closure.ClosureSystem(closure.GroundSet(BOOLEAN_K), _identity)}

    def run_pass(self, state, index, tally):
        from tightspan import closure

        return tally.item(
            lambda: closure.ganter_hasse(state["system"]),
            lambda diagram: check_boolean(diagram, BOOLEAN_K),
        )


def _identity(subset: int) -> int:
    return subset


WORKLOADS = {w.name: w for w in (Flagship(), CensusScan(), StiefelGeneric(), BooleanLattice())}
