#!/usr/bin/env python3
"""Tally the distinct bounded f-vectors of corank-lifted tropical linear spaces.

Reads census files (one basis bitstring per line), lifts every matroid to
the corank valuation on the uniform matroid of the same parameters, and
reports how many distinct bounded f-vectors occur, with multiplicities.

Usage:
    python scripts/survey_bounded_fvectors.py data/census/census_n5_r2.txt ...
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tightspan import (  # noqa: E402
    MatroidError,
    ValuatedMatroid,
    corank_valuation,
    parse_census_line,
    tropical_linear_space,
)


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 1
    tally: Counter = Counter()
    failures = 0
    for path in argv:
        match = re.search(r"census_n(\d+)_r(\d+)", os.path.basename(path))
        if not match:
            print(f"skipping {path}: cannot infer (n, r) from the name")
            continue
        n, r = int(match.group(1)), int(match.group(2))
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    m = parse_census_line(line, n, r)
                    if m.loops():
                        continue
                    v = corank_valuation(m)
                    tls = tropical_linear_space(
                        ValuatedMatroid(valuation=v)
                    )
                    tally[tuple(tls.report["bounded_f_vector"])] += 1
                except MatroidError as exc:
                    failures += 1
                    print(f"{path}: {exc}", file=sys.stderr)
    print(f"{sum(tally.values())} linear spaces, {len(tally)} distinct bounded f-vectors")
    for fv, count in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {fv}: {count}")
    if failures:
        print(f"{failures} failures", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
