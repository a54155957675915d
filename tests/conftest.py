"""Shared builders: small polytopes, fans, matroids and the closure-system
corpus used by both the unit tests and the acceptance suite, and the
command-line input files (the ``files`` fixture)."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from tightspan import (
    ClosureSystem,
    GroundSet,
    Matroid,
    PointConfig,
    Valuation,
    fan_closure,
    hull,
    polytope_closure_facet,
    polytope_closure_vertex,
    regular_subdivision,
    tight_span_closure,
)
from tightspan.closure import mask_of
from oracle import normal_fan, restrict_to_lower_set

CENSUS = Path(__file__).resolve().parents[1] / "data" / "census"
# sha256 of `fvector-scan <file> --n 5 --r R --lift corank`, the digests the
# benchmark checks its census scans against
CENSUS_DIGESTS = {
    "census_n5_r2.txt": (2, "c0691a7426b3e5c0baaad48d71169b0e1c24ece800bd13b67636ce9b534184e4"),
    "census_n5_r3.txt": (3, "0a8ccc14e366c61321c9135c3fe9242921ae39a9265a9708acc5381d72fbed67"),
}


def points_json(config: PointConfig) -> str:
    """A point configuration in the points file format."""
    points = [[str(x) for x in p] for p in config.points]
    return json.dumps({"dim": config.dim, "points": points}, sort_keys=True)


def square_config() -> PointConfig:
    return PointConfig.from_rows([[0, 0], [1, 0], [0, 1], [1, 1]])


def triangle_config() -> PointConfig:
    return PointConfig.from_rows([[0, 0], [2, 0], [0, 2]])


def pentagon_config() -> PointConfig:
    return PointConfig.from_rows([[0, 0], [2, 0], [3, 2], [1, 4], [-1, 2]])


def cube_config() -> PointConfig:
    return PointConfig.from_rows(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )


def hypersimplex(r: int, n: int) -> PointConfig:
    return Matroid.uniform(r, n).polytope()


def fano_matroid() -> Matroid:
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    line_masks = {sum(1 << i for i in l) for l in lines}
    bases = [
        c for c in combinations(range(7), 3) if sum(1 << i for i in c) not in line_masks
    ]
    return Matroid.from_bases(7, bases)


def fano_lines():
    return [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def u12_power(d: int) -> Matroid:
    m = Matroid.uniform(1, 2)
    out = m
    for _ in range(d - 1):
        out = out.direct_sum(m)
    return out


def cell_node(span, cell) -> int:
    """The closed set of a span cell, a mask over the generators: its dual
    vertices' maximal cells, then its dual rays' boundary facets."""
    return mask_of(cell.vertices) | mask_of(cell.rays) << len(span.dual_vertices)


def alternating_sum(counts) -> int:
    """Sum of (-1)^d counts[d]: the Euler characteristic of an f-vector."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


def quartet_vm():
    from tightspan import ValuatedMatroid

    m = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in m.bases}
    vals[(1 << 2) | (1 << 3)] = Fraction(1)
    return ValuatedMatroid(valuation=Valuation(owner=m, values=vals))


def tropical_minor_valuation(matrix) -> Valuation | None:
    """Min-plus maximal minors of an r x n integer matrix (None entries are
    +infinity): v(B) is the least sum over the matchings of the rows to
    the columns B, and the bases are the B with a finite minor.  They
    always form a valuated matroid, whose support is transversal (Speyer,
    Tropical linear spaces; Fink-Rincon, Stiefel tropical linear spaces).
    None when no r columns have a finite minor."""
    r, n = len(matrix), len(matrix[0])
    values = {}
    for cols in combinations(range(n), r):
        sums = [
            sum(matrix[i][c] for i, c in enumerate(perm))
            for perm in permutations(cols)
            if all(matrix[i][c] is not None for i, c in enumerate(perm))
        ]
        if sums:
            values[sum(1 << c for c in cols)] = Fraction(min(sums))
    if not values:
        return None
    return Valuation(owner=Matroid.from_bases(n, list(values)), values=values)


def interval_subdivision():
    cfg = PointConfig.from_rows([[-1], [0], [1]])
    return regular_subdivision(cfg, (1, 0, 1))


def three_path_subdivision():
    cfg = PointConfig.from_rows([[0], [1], [2], [3]])
    return regular_subdivision(cfg, (3, 1, 1, 3))


def two_pyramid_subdivision():
    cfg = hypersimplex(2, 4)
    return regular_subdivision(cfg, (1, 0, 0, 0, 0, 1))


def identity_system(n: int) -> ClosureSystem:
    return ClosureSystem(GroundSet(n), lambda a: a)


def vertex_system(config: PointConfig) -> ClosureSystem:
    hrep, inc, flags = hull(config)
    return polytope_closure_vertex(inc.restricted_to(flags))


def facet_system(config: PointConfig) -> ClosureSystem:
    hrep, inc, flags = hull(config)
    return polytope_closure_facet(inc)


def closure_corpus() -> list[tuple[str, ClosureSystem]]:
    """Named closure systems with |S| <= 15, all brute-forceable."""
    corpus: list[tuple[str, ClosureSystem]] = []

    for n in (1, 2, 3, 6):
        corpus.append((f"identity-{n}", identity_system(n)))

    for name, cfg in [
        ("square", square_config()),
        ("triangle", triangle_config()),
        ("pentagon", pentagon_config()),
        ("cube", cube_config()),
        ("simplex-1-3", hypersimplex(1, 3)),
        ("hypersimplex-2-4", hypersimplex(2, 4)),
    ]:
        corpus.append((f"vertex-{name}", vertex_system(cfg)))

    for name, cfg in [
        ("square", square_config()),
        ("triangle", triangle_config()),
        ("cube", cube_config()),
        ("hypersimplex-2-4", hypersimplex(2, 4)),
    ]:
        corpus.append((f"facet-{name}", facet_system(cfg)))

    from tightspan import Fan

    corpus.append(("fan-square", fan_closure(normal_fan(square_config()))))
    corpus.append(("fan-cube", fan_closure(normal_fan(cube_config()))))
    corpus.append(
        (
            "fan-orthant-2",
            fan_closure(Fan(rays=((1, 0), (0, 1)), maximal_cones=((0, 1),))),
        )
    )
    corpus.append(
        (
            "fan-orthant-3",
            fan_closure(
                Fan(rays=((1, 0, 0), (0, 1, 0), (0, 0, 1)), maximal_cones=((0, 1, 2),))
            ),
        )
    )

    for name, m in [
        ("u13", Matroid.uniform(1, 3)),
        ("u23", Matroid.uniform(2, 3)),
        ("u24", Matroid.uniform(2, 4)),
        ("u35", Matroid.uniform(3, 5)),
        ("fano", fano_matroid()),
        ("u12+u12", u12_power(2)),
        ("with-loop", Matroid.from_bases(3, [[0, 1]])),
    ]:
        corpus.append((f"flats-{name}", m.closure_system()))

    fig1 = interval_subdivision()
    corpus.append(("span-interval-free", tight_span_closure(fig1, [])))
    corpus.append(
        ("span-interval-tight", tight_span_closure(fig1, list(fig1.boundary_facets)))
    )
    sq_triv = regular_subdivision(square_config(), (0,) * 4)
    corpus.append(("span-square-trivial", tight_span_closure(sq_triv, [])))
    pyr = two_pyramid_subdivision()
    corpus.append(("span-two-pyramids", tight_span_closure(pyr, [])))
    corpus.append(("span-three-path", tight_span_closure(three_path_subdivision(), [])))

    sq_sys = vertex_system(square_config())
    corpus.append(
        (
            "restricted-skeleton-square",
            restrict_to_lower_set(sq_sys, lambda c: c.bit_count() <= 1),
        )
    )
    marked = 0b0011  # vertex set of one edge of the square
    corpus.append(
        (
            "restricted-marked-edge",
            restrict_to_lower_set(sq_sys, lambda c: c & marked == 0),
        )
    )
    u24_sys = Matroid.uniform(2, 4).closure_system()
    corpus.append(("restricted-always", restrict_to_lower_set(u24_sys, lambda c: True)))
    cube_sys = vertex_system(cube_config())
    corpus.append(
        (
            "restricted-skeleton-cube",
            restrict_to_lower_set(cube_sys, lambda c: c.bit_count() <= 2),
        )
    )

    # gamma restrictions stated as forbidden masks: the boundary of a path,
    # and the coordinate-zero faces (loops) of two matroid subdivisions
    from tightspan.troplin import _loop_faces

    path = three_path_subdivision()
    corpus.append(
        ("span-three-path-tight", tight_span_closure(path, list(path.boundary_facets)))
    )
    corpus.append(("span-two-pyramids-loops", tight_span_closure(pyr, _loop_faces(pyr.config))))
    quartet = quartet_vm().subdivision
    corpus.append(
        ("span-quartet-loops", tight_span_closure(quartet, _loop_faces(quartet.config)))
    )

    return corpus


@pytest.fixture
def files(tmp_path):
    """The command-line fixtures, each file by its name, and the directory
    as "dir"."""
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("square.json", points_json(square_config()))
    write("u24.json", json.dumps(Matroid.uniform(2, 4).as_dict()))
    write("u23.json", json.dumps(Matroid.uniform(2, 3).as_dict()))
    write("u1212.json", json.dumps(u12_power(2).as_dict()))
    write("d24.json", points_json(Matroid.uniform(2, 4).polytope()))
    vals = {
        ",".join(map(str, c)): ("1" if c == (2, 3) else "0")
        for c in combinations(range(4), 2)
    }
    write("v34.json", json.dumps({"values": vals}))
    write("h_oct.json", json.dumps({"values": ["0", "0", "0", "0", "0", "1"]}))
    write("h_bad.json", json.dumps({"values": ["0", "1", "1", "0", "0", "0"]}))
    write("h_sq.json", json.dumps({"values": ["0", "0", "0", "1"]}))
    write("fig1.json", json.dumps({"dim": 1, "points": [["-1"], ["0"], ["1"]]}))
    write("fig1h.json", json.dumps({"values": ["1", "0", "1"]}))
    fan = normal_fan(square_config())
    write(
        "fan.json",
        json.dumps(
            {
                "rays": [list(r) for r in fan.rays],
                "cones": [list(c) for c in fan.maximal_cones],
            }
        ),
    )
    write("census31.txt", "111\n110\n100\n")
    write("census42.txt", "111111\n011110\n100001\n")
    paths["dir"] = str(tmp_path)
    return paths
