"""Exact hulls, incidences, and the polytope/fan closure operators."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cube_config,
    facet_system,
    hypersimplex,
    pentagon_config,
    square_config,
    triangle_config,
    vertex_system,
)
from tightspan import (
    Fan,
    PointConfig,
    fan_closure,
    ganter_hasse,
    hull,
    regular_subdivision,
)
from tightspan.exactgeom import _nullspace, _rref
from tightspan.oracle import (
    _oprimitive,
    _orank,
    _orrref,
    brute_closed_sets,
    brute_hull,
    brute_vertex_flags,
    normal_fan,
    relative_volume,
    verify_hrep,
)


def test_unit_square():
    hrep, inc, flags = hull(square_config())
    assert len(hrep.facets) == 4
    assert len(hrep.equations) == 0
    assert flags == (True,) * 4
    assert verify_hrep(hrep, square_config())
    assert all(r.bit_count() == 2 for r in inc.rows)


def test_hypersimplex_2_4():
    cfg = hypersimplex(2, 4)
    hrep, inc, flags = hull(cfg)
    assert len(hrep.facets) == 8
    assert len(hrep.equations) == 1
    assert all(flags)
    assert verify_hrep(hrep, cfg)
    # octahedron: every facet is a triangle
    assert all(r.bit_count() == 3 for r in inc.rows)
    # the affine hull is the coordinate-sum-two hyperplane
    eq = hrep.equations[0]
    assert abs(eq.normal[0]) == 1 and len(set(eq.normal)) == 1


def test_simplex_1_3():
    cfg = hypersimplex(1, 3)
    hrep, _, flags = hull(cfg)
    assert len(hrep.facets) == 3
    assert len(hrep.equations) == 1
    assert all(flags)


def test_segment_and_point():
    seg = PointConfig.from_rows([[0, 0], [2, 2]])
    hrep, inc, flags = hull(seg)
    assert len(hrep.facets) == 2
    assert len(hrep.equations) == 1
    assert flags == (True, True)

    pt = PointConfig.from_rows([[3, 4]])
    hrep, inc, flags = hull(pt)
    assert hrep.facets == ()
    assert len(hrep.equations) == 2
    assert flags == (True,)


def test_interior_and_midpoint_points_are_not_vertices():
    cfg = PointConfig.from_rows(
        [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1], [1, 0]]
    )
    hrep, inc, flags = hull(cfg)
    assert len(hrep.facets) == 4
    assert flags == (True, True, True, True, False, False)
    # the midpoint of the bottom edge is incident to that facet
    bottom = next(r for f, r in zip(hrep.facets, inc.rows) if r >> 5 & 1)
    assert bottom >> 0 & 1 and bottom >> 1 & 1


def test_pentagon_is_pentagonal():
    hrep, _, flags = hull(pentagon_config())
    assert len(hrep.facets) == 5
    assert all(flags)


def test_rational_coordinates():
    cfg = PointConfig.from_rows(
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)], [Fraction(-1, 2), 0], [0, -1]]
    )
    hrep, inc, flags = hull(cfg)
    assert len(hrep.facets) == 4
    assert verify_hrep(hrep, cfg)


@pytest.mark.parametrize(
    "config",
    [
        square_config(),
        pentagon_config(),
        cube_config(),
        hypersimplex(2, 4),
        hypersimplex(1, 3),
        hypersimplex(1, 5),
        hypersimplex(3, 4),
        PointConfig.from_rows([[0, 0], [1, 1], [2, 2], [3, 1]]),
    ],
    ids=["square", "pentagon", "cube", "d24", "d13", "d15", "d34", "collinear-trio"],
)
def test_hull_matches_brute_force(config):
    hrep, inc, flags = hull(config)
    facets, equations = brute_hull(config)
    assert {r for r in inc.rows} == {onset for _, _, onset in facets}
    assert len(hrep.equations) == len(equations)
    assert verify_hrep(hrep, config)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=7,
        unique=True,
    )
)
def test_random_planar_hulls_match_brute_force(rows):
    config = PointConfig.from_rows(rows)
    hrep, inc, flags = hull(config)
    facets, equations = brute_hull(config)
    assert {r for r in inc.rows} == {onset for _, _, onset in facets}
    assert verify_hrep(hrep, config)
    # vertex flags: a point is a vertex iff dropping it changes the hull
    verts = {config.points[i] for i in range(len(rows)) if flags[i]}
    if len(rows) > 1:
        for i, p in enumerate(config.points):
            others = [q for j, q in enumerate(config.points) if j != i]
            sub_facets, sub_eq = brute_hull(PointConfig(dim=2, points=tuple(others)))
            inside = all(
                sum(n[c] * p[c] for c in range(2)) + off >= 0
                for n, off, _ in sub_facets
            ) and all(
                sum(n[c] * p[c] for c in range(2)) + off == 0 for n, off in sub_eq
            )
            assert inside == (p not in verts)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
def test_random_spatial_hulls_match_brute_force(rows):
    config = PointConfig.from_rows(rows)
    hrep, inc, flags = hull(config)
    facets, _ = brute_hull(config)
    assert {r for r in inc.rows} == {onset for _, _, onset in facets}
    assert verify_hrep(hrep, config)


# -- the hull is the zero-height subdivision ---------------------------------

def assert_hull_is_the_zero_height_subdivision(config):
    zeros = (0,) * len(config.points)
    sub = regular_subdivision(config, zeros)
    assert hull(config)[:2] == (sub.base_hrep, sub.base_incidence)


@pytest.mark.parametrize(
    "config",
    [
        square_config(),
        triangle_config(),
        pentagon_config(),
        cube_config(),
        hypersimplex(1, 3),
        hypersimplex(2, 4),
        hypersimplex(3, 6),
        PointConfig.from_rows([[3, 4]]),
    ],
    ids=["square", "triangle", "pentagon", "cube", "d13", "d24", "d36", "point"],
)
def test_hull_is_the_zero_height_subdivision(config):
    assert_hull_is_the_zero_height_subdivision(config)


@st.composite
def integer_configs(draw):
    """Distinct integer points in R^1..R^4 with entries -2..2, and some of
    the integer midpoints of their pairs: points of the hull that are not
    vertices, inside it or on its faces."""
    k = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=8, unique=True))
    mids = sorted({
        tuple((a + b) // 2 for a, b in zip(p, q))
        for p, q in combinations(pts, 2)
        if all((a + b) % 2 == 0 for a, b in zip(p, q))
    } - set(pts))
    if mids:
        pts += draw(st.lists(st.sampled_from(mids), max_size=3, unique=True))
    return PointConfig.from_rows(pts)


@settings(max_examples=100, deadline=None)
@given(integer_configs())
def test_random_hulls_are_zero_height_subdivisions(config):
    assert_hull_is_the_zero_height_subdivision(config)


# -- polytope closure operators ----------------------------------------------

def test_vertex_closure_square_examples():
    system = vertex_system(square_config())
    assert system.close(0b0001) == 0b0001
    assert system.close(0b0011) == 0b0011  # adjacent pair: the edge
    assert system.close(0b1001) == 0b1111  # diagonal pair: whole square
    assert system.close(0) == 0


def test_facet_closure_square_examples():
    system = facet_system(square_config())
    h = ganter_hasse(system)
    assert len(h.nodes) == 10
    singles = [1 << i for i in range(4)]
    for s in singles:
        assert system.close(s) == s
    pair_closures = [system.close(a | b) for a in singles for b in singles if a < b]
    sizes = sorted(c.bit_count() for c in pair_closures)
    assert sizes == [2, 2, 2, 2, 4, 4]  # 4 vertices, 2 empty-face pairs
    assert system.close(0) == 0


def anti_isomorphic(config):
    """Vertex and facet encodings give anti-isomorphic diagrams: identify
    nodes by the vertex set of the face they represent and compare arcs."""
    hrep, inc, flags = hull(config)
    vsys = vertex_system(config)
    fsys = facet_system(config)
    hv = ganter_hasse(vsys)
    hf = ganter_hasse(fsys)
    if len(hv.nodes) != len(hf.nodes):
        return False
    all_pts = (1 << inc.n_points) - 1

    def facet_node_key(mask):
        q = all_pts
        for j, r in enumerate(inc.rows):
            if mask >> j & 1:
                q &= r
        return q

    kv = {i: m for i, m in enumerate(hv.nodes)}
    kf = {i: facet_node_key(m) for i, m in enumerate(hf.nodes)}
    if set(kv.values()) != set(kf.values()):
        return False
    arcs_v = {(kv[a], kv[b]) for a, b in hv.arcs}
    arcs_f = {(kf[b], kf[a]) for a, b in hf.arcs}
    return arcs_v == arcs_f


@pytest.mark.parametrize(
    "config",
    [square_config(), cube_config(), hypersimplex(2, 4)],
    ids=["square", "cube", "d24"],
)
def test_encodings_anti_isomorphic(config):
    assert anti_isomorphic(config)


# -- fans ---------------------------------------------------------------------

def test_fan_closure_square_examples():
    fan = normal_fan(square_config())
    system = fan_closure(fan)
    nr = len(fan.rays)
    adjacency = {frozenset(c) for c in fan.maximal_cones}
    for i in range(nr):
        assert system.close(1 << i) == 1 << i
    for i in range(nr):
        for j in range(i + 1, nr):
            pair = (1 << i) | (1 << j)
            if frozenset((i, j)) in adjacency:
                assert system.close(pair) == pair
            else:
                assert system.close(pair) == system.ground.full_mask


def test_fan_chain_lengths():
    # face lattice of a k-dimensional cone has maximal chains of length k+1
    for k in (1, 2, 3):
        rays = tuple(
            tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
        )
        fan = Fan(rays=rays, maximal_cones=(tuple(range(k)),))
        h = ganter_hasse(fan_closure(fan))
        assert max(h.heights()) == k + 1


def test_fan_with_lineality():
    fan = Fan(
        rays=((1, 0), (-1, 0)),
        maximal_cones=((0,), (1,)),
        lineality=((0, 1),),
    )
    system = fan_closure(fan)
    assert system.close(0b01) == 0b01
    assert system.close(0b10) == 0b10
    assert system.close(0b11) == system.ground.full_mask
    nodes, covers = brute_closed_sets(system)
    h = ganter_hasse(system)
    assert set(h.nodes) == nodes


def test_fan_rejects_a_cone_that_repeats_a_ray():
    with pytest.raises(ValueError, match="repeats an element"):
        Fan(rays=((1, 0), (0, 1)), maximal_cones=((0, 0, 1),))


def test_fan_rejects_redundant_ray():
    with pytest.raises(ValueError):
        fan_closure(
            Fan(rays=((1, 0), (0, 1), (1, 1)), maximal_cones=((0, 1, 2),))
        )


def test_fan_closure_matches_brute_on_cube_fan():
    system = fan_closure(normal_fan(cube_config()))
    h = ganter_hasse(system)
    nodes, covers = brute_closed_sets(system)
    assert set(h.nodes) == nodes
    assert {(h.nodes[a], h.nodes[b]) for a, b in h.arcs} == covers


# -- volumes -------------------------------------------------------------------

def test_relative_volume_square():
    pts = list(square_config().points)
    assert relative_volume(pts, [0, 1]) == 1
    tri1 = [pts[0], pts[1], pts[3]]
    tri2 = [pts[0], pts[2], pts[3]]
    assert relative_volume(tri1, [0, 1]) + relative_volume(tri2, [0, 1]) == 1


# -- the integer elimination kernel against the Fraction oracle ---------------

_entry = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


@st.composite
def rational_matrices(draw, min_rows=0):
    """Tall and wide rational matrices with zero rows, repeated rows and
    rows that combine others, so that every rank occurs."""
    ncols = draw(st.integers(1, 7))
    base = draw(st.lists(st.lists(_entry, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    kinds = st.sampled_from(["base", "zero", "repeat", "combination"])
    rows = []
    for kind in draw(st.lists(kinds, min_size=min_rows, max_size=8)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(st.integers(-3, 3)), draw(_entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(list(draw(st.sampled_from(base))))
    return rows, ncols


def _is_primitive(vec) -> bool:
    return all(isinstance(x, int) for x in vec) and gcd(*vec) == 1


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_kernel_matches_fraction_oracle(matrix):
    rows, ncols = matrix
    rr, pivots = _rref(rows)
    orr, opivots = _orrref([[Fraction(x) for x in r] for r in rows])
    assert pivots == opivots
    for row, orow, p in zip(rr, orr, pivots):
        assert _is_primitive(row) and row[p] > 0
        assert [Fraction(x, row[p]) for x in row] == orow
    assert len(rr) == _orank(rows) == len(opivots)
    free = [c for c in range(ncols) if c not in opivots]
    basis = _nullspace(rr, pivots, ncols)
    assert len(basis) == len(free)
    for v, f in zip(basis, free):
        # canonical: primitive, positive at its free column, zero at the others
        assert _is_primitive(v) and v[f] > 0
        assert all(v[g] == 0 for g in free if g != f)
        assert all(sum(Fraction(a) * b for a, b in zip(r, v)) == 0 for r in rows)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(min_rows=1))
def test_seed_scan_keeps_the_greedy_rank_indices(matrix):
    # the DD seed: each generator independent of those kept before it is a
    # pivot column of the transposed generators
    rows, ncols = matrix
    gens = [_oprimitive(r) for r in rows]
    kept = []
    for i, g in enumerate(gens):
        if _orank([gens[j] for j in kept] + [g]) > len(kept):
            kept.append(i)
    assert _rref(list(zip(*gens)))[1] == kept


# -- vertex flags beyond the plane --------------------------------------------

_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_D24 = [tuple(int(i in c) for i in range(4)) for c in combinations(range(4), 2)]
_D24_INNER = [
    (_HALF,) * 4,  # the centre
    (_HALF, _HALF, 1, 0),  # midpoint of an edge
    (0, 2 * _THIRD, 2 * _THIRD, 2 * _THIRD),  # centre of a triangle
    (_THIRD, _THIRD, 2 * _THIRD, 2 * _THIRD),  # inside
]
# the 4-dimensional cross-polytope: each of its edges lies on four facets,
# so a point on an edge meets as many facets as a vertex does
_CROSS4 = [tuple(s * int(i == j) for i in range(4)) for j in range(4) for s in (1, -1)]
_CROSS4_INNER = [
    (_HALF, _HALF, 0, 0),  # midpoint of an edge
    (_HALF, 0, -_HALF, 0),  # midpoint of an edge
    (_THIRD, _THIRD, _THIRD, 0),  # centre of a triangle
    (0, 0, 0, 0),  # the centre
]


@st.composite
def embedded_configs(draw):
    """Points of a small grid in R^k (k <= 4), either as they are or mapped
    injectively onto an affine subspace of R^(k+1), with rational
    coordinates; or vertices of Delta(2,4) or of the 4-dimensional
    cross-polytope together with points on their faces and inside."""
    special = draw(st.sampled_from(["d24", "cross4", None, None]))
    if special == "d24":
        pts = draw(st.lists(st.sampled_from(_D24), min_size=1, unique=True))
        pts += draw(st.lists(st.sampled_from(_D24_INNER), unique=True))
        return PointConfig.from_rows(pts)
    if special == "cross4":
        inner = draw(st.lists(st.sampled_from(_CROSS4_INNER), min_size=1, max_size=2, unique=True))
        return PointConfig.from_rows(_CROSS4 + inner)
    k = draw(st.integers(1, 4))
    coord = st.integers(-2, 2) if k < 4 else st.integers(-1, 1)
    pts = draw(st.lists(st.tuples(*[coord] * k), min_size=1, max_size=9, unique=True))
    if draw(st.booleans()):
        a = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        c = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        pts = [p + (c + Fraction(sum(x * y for x, y in zip(a, p)), 2),) for p in pts]
    return PointConfig.from_rows(pts)


@settings(max_examples=40, deadline=None)
@given(embedded_configs())
def test_vertex_flags_match_hull_membership(config):
    _, _, flags = hull(config)
    assert flags == brute_vertex_flags(config)
