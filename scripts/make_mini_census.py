#!/usr/bin/env python3
"""Regenerate the bundled mini census of matroids under data/census/.

For every ground set size n <= 5 and every rank, all exchange-closed basis
families are enumerated exhaustively (labeled matroids, not isomorphism
classes).  For n = 6 a hand-picked list of uniform matroids and direct sums
is appended.  Files are one bitstring per line in lexicographic basis order,
named census_n<N>_r<R>.txt.  Deterministic output.
"""

from __future__ import annotations

import os
import sys
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tightspan.matroid import Matroid, format_census_line  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "census")
MAX_EXHAUSTIVE_N = 5


def exchange_closed_families(n: int, r: int):
    subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    found = []
    for pick in range(1, 1 << len(subsets)):
        bases = frozenset(s for j, s in enumerate(subsets) if pick >> j & 1)
        m = Matroid(n=n, r=r, bases=bases)
        if m.satisfies_exchange():
            found.append(m)
    return found


def hand_listed_n6():
    u = Matroid.uniform
    sums = [
        u(1, 2).direct_sum(u(1, 2)).direct_sum(u(1, 2)),
        u(1, 2).direct_sum(u(1, 4)),
        u(1, 2).direct_sum(u(2, 4)),
        u(1, 2).direct_sum(u(3, 4)),
        u(1, 3).direct_sum(u(1, 3)),
        u(1, 3).direct_sum(u(2, 3)),
        u(2, 3).direct_sum(u(2, 3)),
        u(2, 4).direct_sum(u(1, 2)),
        u(1, 5).direct_sum(u(1, 1)),
        u(2, 5).direct_sum(u(1, 1)),
        u(3, 5).direct_sum(u(1, 1)),
    ]
    uniforms = [u(r, 6) for r in range(1, 7)]
    return uniforms + sums


def census_texts() -> dict[str, str]:
    """File name -> contents of every census file, in (n, r) order."""
    buckets: dict[tuple[int, int], list[str]] = {}

    for n in range(1, MAX_EXHAUSTIVE_N + 1):
        for r in range(1, n + 1):
            for m in exchange_closed_families(n, r):
                buckets.setdefault((n, r), []).append(format_census_line(m))

    for m in hand_listed_n6():
        buckets.setdefault((m.n, m.r), []).append(format_census_line(m))

    return {
        f"census_n{n}_r{r}.txt": "\n".join(sorted(set(lines))) + "\n"
        for (n, r), lines in sorted(buckets.items())
    }


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, text in census_texts().items():
        path = os.path.join(OUT_DIR, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{path}: {len(text.splitlines())} matroids")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
