"""Regular subdivisions, dual complexes and extended tight spans."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CENSUS,
    cell_node,
    hypersimplex,
    interval_subdivision,
    square_config,
    three_path_subdivision,
    two_pyramid_subdivision,
    u12_power,
)
from tightspan import (
    PointConfig,
    coordinatize,
    corank_valuation,
    ganter_hasse,
    hull,
    parse_census_line,
    regular_subdivision,
    tight_span_closure,
)
from tightspan.closure import indices
from tightspan.subdivision import ExtendedTightSpan
from tightspan import exactgeom
from oracle import (
    _orank,
    brute_boundary,
    brute_hull,
    brute_lower_cells,
    relative_volume,
    same_height_class,
    solved_dual_vertices,
    span_cell_rank_dims,
    subdivision_from_cells,
    two_hull_subdivision,
)


def node_label_sets(sub, diagram):
    """Each node as its set of names: max<i> for the i-th maximal cell of
    ``sub``, bd<i> for the i-th boundary facet after them."""
    names = [f"max{i}" for i in range(len(sub.maximal_cells))]
    names += [f"bd{i}" for i in range(len(sub.boundary_facets))]
    return {frozenset(names[i] for i in indices(m)) for m in diagram.nodes}


def test_interval_subdivision_cells():
    sub = interval_subdivision()
    assert set(sub.maximal_cells) == {0b011, 0b110}
    assert set(sub.boundary_facets) == {0b001, 0b100}
    # each boundary facet sits in its own hull facet
    assert len(set(sub.carrier_facet)) == 2


def test_flat_heights_give_trivial_subdivision():
    for cfg in [square_config(), hypersimplex(2, 4)]:
        npts = len(cfg.points)
        sub = regular_subdivision(cfg, (0,) * npts)
        assert sub.maximal_cells == ((1 << npts) - 1,)
        # affine but nonconstant heights are still trivial
        aff = tuple(p[0] + 2 * p[1] for p in cfg.points)
        sub2 = regular_subdivision(cfg, aff)
        assert sub2.maximal_cells == ((1 << npts) - 1,)


def test_trivial_square_boundary_is_edge_set():
    sub = regular_subdivision(square_config(), (0,) * 4)
    assert set(sub.boundary_facets) == {0b0011, 0b0101, 0b1010, 0b1100}


def test_two_pyramids():
    sub = two_pyramid_subdivision()
    cells = {indices(c) for c in sub.maximal_cells}
    assert cells == {(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)}


@pytest.mark.parametrize(
    "builder",
    [interval_subdivision, three_path_subdivision, two_pyramid_subdivision],
    ids=["interval", "three-path", "two-pyramids"],
)
def test_cells_match_lower_hull_oracle(builder):
    sub = builder()
    assert set(sub.maximal_cells) == brute_lower_cells(sub.config, sub.heights)


def test_octahedron_single_lift_cells():
    cfg = hypersimplex(2, 4)
    sub = regular_subdivision(cfg, (0, 0, 0, 0, 0, 1))
    assert set(sub.maximal_cells) == brute_lower_cells(cfg, sub.heights)
    assert len(sub.maximal_cells) == 2


def test_volume_partition():
    for builder in [interval_subdivision, three_path_subdivision, two_pyramid_subdivision]:
        sub = builder()
        pts = list(sub.config.points)
        diffs = [
            [a - b for a, b in zip(p, pts[0])] for p in pts[1:]
        ]
        from tightspan.exactgeom import _rref

        _, pivots = _rref([[Fraction(x) for x in r] for r in diffs])
        total = relative_volume(pts, pivots)
        parts = sum(
            relative_volume([pts[i] for i in indices(c)], pivots)
            for c in sub.maximal_cells
        )
        assert parts == total


# -- tight span closure --------------------------------------------------------

def test_interval_tight_span_closed_sets():
    sub = interval_subdivision()
    d = ganter_hasse(tight_span_closure(sub, []))
    labels = node_label_sets(sub, d)
    # identify boundary labels by their point sets
    bd = {sub.boundary_facets[i]: f"bd{i}" for i in range(2)}
    left, right = bd[0b001], bd[0b100]  # point -1 and point 1
    expected = {
        frozenset(),
        frozenset({"max0"}),
        frozenset({"max1"}),
        frozenset({"max0", "max1"}),
        frozenset({"max0", left}),
        frozenset({"max1", right}),
        frozenset({"max0", "max1", left, right}),
    }
    assert labels == expected


def test_interval_tight_span_gamma_all():
    sub = interval_subdivision()
    d = ganter_hasse(tight_span_closure(sub, list(sub.boundary_facets)))
    labels = node_label_sets(sub, d)
    expected = {
        frozenset(),
        frozenset({"max0"}),
        frozenset({"max1"}),
        frozenset({"max0", "max1"}),
        frozenset({"max0", "max1", "bd0", "bd1"}),
    }
    assert labels == expected


def test_trivial_square_tight_span_structure():
    sub = regular_subdivision(square_config(), (0,) * 4)
    span = coordinatize(sub, [])
    # dual complex is the normal fan: one vertex, four rays, four 2-cones
    assert span.f_vector() == (1, 4, 4)
    assert span.bounded_f_vector() == (1,)
    assert span.dual_vertices == ((Fraction(0), Fraction(0)),)
    assert set(span.dual_rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_invalid_gamma_rejected():
    sub = interval_subdivision()
    with pytest.raises(ValueError):
        tight_span_closure(sub, [0b111])  # the whole segment is not a boundary face


# -- coordinatization ----------------------------------------------------------

def test_interval_coordinates():
    sub = interval_subdivision()
    span = coordinatize(sub, [])
    assert span.dual_vertices == ((Fraction(-1),), (Fraction(1),))
    ray_of = {sub.boundary_facets[i]: span.dual_rays[i] for i in range(2)}
    assert ray_of[0b001] == (-1,)
    assert ray_of[0b100] == (1,)
    assert span.f_vector() == (2, 3)
    assert span.bounded_f_vector() == (2, 1)
    tight = coordinatize(sub, list(sub.boundary_facets))
    assert tight.f_vector() == (2, 1)
    assert tight.bounded_f_vector() == (2, 1)


def test_simplex_trivial_span_quotient():
    sub = regular_subdivision(hypersimplex(1, 3), (0, 0, 0))
    span = coordinatize(sub, [])
    assert span.f_vector() == (1, 3, 3)
    assert span.bounded_f_vector() == (1,)
    assert span.lineality_dim == 1
    assert span.as_dict(quotient=False)["f_vector"] == [0, 1, 3, 3]


@pytest.mark.parametrize("quotient", [True, False])
def test_a_span_without_cells_counts_none(quotient):
    # the f-vectors of no cells stay empty; no lineality zeros are put in front
    span = ExtendedTightSpan(dual_vertices=(), dual_rays=(), lineality=((1, 1),), cells=())
    assert span.f_vector() == span.bounded_f_vector() == ()
    doc = span.as_dict(quotient=quotient)
    assert doc["f_vector"] == doc["bounded_f_vector"] == [] and doc["lineality_dim"] == 1


def test_two_pyramid_coordinates():
    sub = two_pyramid_subdivision()
    span = coordinatize(sub, [])
    assert span.bounded_f_vector() == (2, 1)
    v1, v2 = span.dual_vertices
    diff = tuple(a - b for a, b in zip(v1, v2))
    # the two dual vertices differ in the direction dual to the shared square
    assert diff in {(1, 1, -1, -1), (-1, -1, 1, 1)}
    for v in span.dual_vertices:
        assert sum(v) == 0


def test_dual_vertex_minimizers():
    # argmin of height(p) - p.x at the dual vertex is exactly the cell
    for sub in [interval_subdivision(), two_pyramid_subdivision(), three_path_subdivision()]:
        span = coordinatize(sub, [])
        for cell_mask, x in zip(sub.maximal_cells, span.dual_vertices):
            vals = [
                h - sum(a * b for a, b in zip(p, x))
                for p, h in zip(sub.config.points, sub.heights)
            ]
            best = min(vals)
            argmin = sum(1 << i for i, v in enumerate(vals) if v == best)
            assert argmin == cell_mask


def test_dual_ray_minimizers():
    # far enough along a ray, the argmin becomes the boundary facet
    for sub in [interval_subdivision(), two_pyramid_subdivision()]:
        span = coordinatize(sub, [])
        for bi, (bmask, ray) in enumerate(zip(sub.boundary_facets, span.dual_rays)):
            # pick a maximal cell containing the boundary facet
            ci = next(
                i for i, c in enumerate(sub.maximal_cells) if bmask & ~c == 0
            )
            x0 = span.dual_vertices[ci]
            # exact threshold: beyond it the boundary points win
            best_ray = max(
                sum(a * b for a, b in zip(p, ray))
                for i, p in enumerate(sub.config.points)
                if bmask >> i & 1
            )
            t0 = Fraction(1)
            for i, p in enumerate(sub.config.points):
                proj = sum(a * b for a, b in zip(p, ray))
                if proj < best_ray:
                    gap = (
                        sub.heights[i]
                        - sum(a * b for a, b in zip(p, x0))
                    )
                    t0 = max(t0, (1 - gap) / (best_ray - proj) + 1)
            x = tuple(a + t0 * r for a, r in zip(x0, ray))
            vals = [
                h - sum(a * b for a, b in zip(p, x))
                for p, h in zip(sub.config.points, sub.heights)
            ]
            best = min(vals)
            argmin = sum(1 << i for i, v in enumerate(vals) if v == best)
            assert argmin == bmask


def test_duality_dimension_bijection():
    for sub in [interval_subdivision(), two_pyramid_subdivision(), three_path_subdivision()]:
        span = coordinatize(sub, [])
        k = sub.dim
        pts = sub.config.points
        seen_cells = set()
        for cell in span.cells:
            q = tight_span_closure(sub).cell(cell_node(span, cell))
            seen_cells.add(q)
            idx = [i for i in range(len(pts)) if q >> i & 1]
            diffs = [
                [a - b for a, b in zip(pts[i], pts[idx[0]])] for i in idx[1:]
            ]
            assert cell.dim + _orank(diffs) == k
        assert len(seen_cells) == len(span.cells)  # distinct cells


def test_tight_span_equals_maximal_cell_system():
    # with gamma = all boundary facets, the proper closed sets match the
    # closure system generated by the maximal cells alone
    for sub in [interval_subdivision(), three_path_subdivision(), two_pyramid_subdivision()]:
        span = coordinatize(sub, list(sub.boundary_facets))
        span_keys = {tight_span_closure(sub).cell(cell_node(span, c)) for c in span.cells}

        # independent path: closure system on maximal cells only
        from tightspan.closure import ClosureSystem, GroundSet

        gens = list(sub.maximal_cells)
        all_pts = (1 << sub.n_points) - 1

        def close(f, gens=gens, all_pts=all_pts):
            if f == 0:
                return 0
            q = all_pts
            for j in range(len(gens)):
                if f >> j & 1:
                    q &= gens[j]
            return sum(
                1 << j for j, g in enumerate(gens) if q & ~g == 0
            )

        system = ClosureSystem(GroundSet(len(gens)), close)
        d = ganter_hasse(system)
        keys = set()
        for node in d.nodes:
            if node == 0:
                continue
            q = all_pts
            for j in range(len(gens)):
                if node >> j & 1:
                    q &= gens[j]
            if q == 0 or any(q & ~b == 0 for b in sub.boundary_facets):
                continue
            keys.add(q)
        assert span_keys == keys


def test_span_json_round_trip_fields():
    span = coordinatize(interval_subdivision(), [])
    data = span.as_dict()
    assert data["f_vector"] == [2, 3]
    assert data["bounded_f_vector"] == [2, 1]
    assert data["vertices"] == [["-1"], ["1"]]
    assert sorted(data["rays"]) == [[-1], [1]]
    assert data["lineality"] == []
    assert len(data["cells"]) == 5


def test_nonconvex_break_height_derived():
    # any strictly convexity-breaking lift at the middle point splits the segment
    cfg = PointConfig.from_rows([[-1], [0], [1]])
    sub = regular_subdivision(cfg, (0, Fraction(-1, 7), 0))
    assert set(sub.maximal_cells) == {0b011, 0b110}


def test_combinatorial_subdivision_poset_path():
    cfg = PointConfig.from_rows([[-1], [0], [1]])
    explicit = subdivision_from_cells(cfg, [(0, 1), (1, 2)])
    assert set(explicit.boundary_facets) == {0b001, 0b100}
    regular = interval_subdivision()
    d1 = ganter_hasse(tight_span_closure(explicit, []))
    d2 = ganter_hasse(tight_span_closure(regular, []))
    assert set(d1.nodes) == set(d2.nodes)
    with pytest.raises(ValueError):
        subdivision_from_cells(cfg, [(0, 1), (0, 1, 2)])


# -- one double description per regular subdivision ---------------------------

small_rational = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)


@st.composite
def lifted_configuration(draw):
    """Distinct rational points in R^1..R^4, possibly on a proper affine
    subspace (an integer image of a lower-dimensional configuration), with
    random, affine or mixed heights; one-point configurations included."""
    dim = draw(st.integers(min_value=1, max_value=4))
    inner = draw(st.integers(min_value=1, max_value=dim))
    n = draw(st.integers(min_value=1, max_value=8))
    raw = draw(st.lists(st.tuples(*[small_rational] * inner), min_size=n, max_size=n))
    if inner < dim:
        matrix = draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * inner), min_size=dim, max_size=dim
        ))
        shift = draw(st.tuples(*[small_rational] * dim))
        raw = [
            tuple(sum((a * x for a, x in zip(row, p)), Fraction(0)) + c
                  for row, c in zip(matrix, shift))
            for p in raw
        ]
    points = list(dict.fromkeys(raw))
    kind = draw(st.sampled_from(["random", "affine", "affine plus one"]))
    if kind == "random":
        heights = draw(st.lists(small_rational, min_size=len(points), max_size=len(points)))
    else:
        slope = draw(st.tuples(*[small_rational] * dim))
        c = draw(small_rational)
        heights = [sum((a * x for a, x in zip(slope, p)), c) for p in points]
        if kind == "affine plus one":
            heights[draw(st.integers(0, len(points) - 1))] += draw(small_rational)
    return PointConfig(dim=dim, points=tuple(points)), tuple(heights)


@settings(max_examples=150, deadline=None)
@given(lifted_configuration())
def test_one_double_description_matches_two_hulls(case):
    config, heights = case
    sub = regular_subdivision(config, heights)
    ref = two_hull_subdivision(config, heights)
    assert sub.maximal_cells == ref.maximal_cells
    assert sub.boundary_facets == ref.boundary_facets
    assert sub.carrier_facet == ref.carrier_facet
    assert sub.base_hrep == ref.base_hrep
    assert sub.base_incidence == ref.base_incidence
    if len(config.points) <= 8 and config.dim <= 4:
        assert set(sub.maximal_cells) == brute_lower_cells(config, heights)


def pieces_and_kept(sub) -> tuple[int, int]:
    """The pieces of the cells on the hull facets, and the boundary facets
    kept of them, each after checking the boundary against the pairwise
    maximality test, order included."""
    assert (sub.boundary_facets, sub.carrier_facet) == brute_boundary(
        sub.maximal_cells, sub.base_incidence
    )
    pieces = sum(len({c & f for c in sub.maximal_cells} - {0})
                 for f in sub.base_incidence.rows)
    return pieces, len(sub.boundary_facets)


@settings(max_examples=150, deadline=None)
@given(lifted_configuration())
def test_boundary_matches_the_pairwise_maximality_test(case):
    pieces_and_kept(regular_subdivision(*case))


def test_boundary_matches_the_pairwise_test_on_corank_lifts_and_single_cells():
    lifts = [corank_valuation(u12_power(k)) for k in (2, 3, 4)]
    for name, n, r in [("census_n4_r2.txt", 4, 2), ("census_n5_r2.txt", 5, 2),
                       ("census_n5_r3.txt", 5, 3)]:
        lifts += [corank_valuation(parse_census_line(line, n, r))
                  for line in (CENSUS / name).read_text().split()]
    subs = [regular_subdivision(v.owner.polytope(), v.heights()) for v in lifts]
    subs += [regular_subdivision(config, (0,) * len(config.points))
             for config in (square_config(), hypersimplex(2, 4), PointConfig.from_rows([[1, 2]]))]
    counts = [pieces_and_kept(sub) for sub in subs]
    assert sum(len(sub.maximal_cells) == 1 for sub in subs) >= 5
    # some facets hold pieces that a larger piece contains
    assert sum(pieces > kept for pieces, kept in counts) >= 100


@settings(max_examples=150, deadline=None)
@given(lifted_configuration())
def test_dual_vertices_match_solved_systems(case):
    config, heights = case
    sub = regular_subdivision(config, heights)
    assert coordinatize(sub).dual_vertices == solved_dual_vertices(sub)


def _ints_where_integral(values) -> tuple:
    return tuple(int(x) if x.denominator == 1 else x for x in values)


@settings(max_examples=150, deadline=None)
@given(lifted_configuration(), st.booleans())
def test_the_frames_seed_rays_are_a_dual_basis_of_the_seed_generators(case, as_ints):
    # the DD seed is read off the configuration's cached frame; the heights
    # enter only the upward ray's seed facet, so the seed is checked on the
    # generators the DD is actually given, cold or warm
    config, heights = case
    if as_ints:
        config = PointConfig(config.dim, tuple(map(_ints_where_integral, config.points)))
        heights = _ints_where_integral(heights)
    recorded = []
    dd = exactgeom._dd_polar_rays

    def recording(gens, seed, rays):
        recorded.append((gens, seed, rays))
        return dd(gens, seed, rays)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactgeom, "_dd_polar_rays", recording)
        sub = regular_subdivision(config, heights)
    if len(config.points) == 1:
        assert recorded == []
    else:
        [(gens, seed, rays)] = recorded
        # the seed is the greedy basis: each generator independent of those before it
        kept = []
        for i, g in enumerate(gens):
            if _orank([gens[j] for j in kept] + [g]) > len(kept):
                kept.append(i)
        chosen = list(indices(seed))
        assert chosen == kept and kept[0] == 0
        assert len(rays) == len(chosen) == len(gens[0])
        for (ray, zeros), t in zip(rays, chosen):
            assert gcd(*ray) == 1
            assert zeros == seed ^ 1 << t
            for s in chosen:
                pairing = sum(a * b for a, b in zip(ray, gens[s]))
                assert pairing > 0 if s == t else pairing == 0
    if len(config.points) <= 8 and config.dim <= 4:
        assert set(sub.maximal_cells) == brute_lower_cells(config, heights)
        hrep, incidence, _ = hull(config)
        facets, equations = brute_hull(config)
        assert set(incidence.rows) == {onset for _, _, onset in facets}
        assert len(hrep.equations) == len(equations)


# -- height classes: the key of a census scan's memo -------------------------

def assert_classes(config, heights, other) -> bool:
    """Whether ``heights`` and ``other`` have one ``height_class``, after
    checking that against the linear-algebra oracle and, for one class,
    that they give one subdivision."""
    same = exactgeom.height_class(config, heights) == exactgeom.height_class(config, other)
    assert same == same_height_class(config.points, heights, other)
    if same:
        cells = regular_subdivision(config, heights).maximal_cells
        assert regular_subdivision(config, other).maximal_cells == cells
    return same


positive_rational = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(lifted_configuration(), positive_rational, st.data())
def test_an_affine_function_and_a_positive_scale_keep_the_height_class(case, scale, data):
    config, heights = case
    slope = data.draw(st.tuples(*[small_rational] * config.dim))
    c = data.draw(small_rational)
    other = [scale * h + sum((a * x for a, x in zip(slope, p)), c)
             for h, p in zip(heights, config.points)]
    assert assert_classes(config, heights, other)


@settings(max_examples=150, deadline=None)
@given(lifted_configuration(), st.data())
def test_equal_height_classes_are_the_oracles_and_give_equal_cells(case, data):
    # few distinct values, so that classes often meet
    config, _ = case
    n = len(config.points)
    few = st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2)]), min_size=n, max_size=n)
    assert_classes(config, data.draw(few), data.draw(few))


@pytest.mark.parametrize("config, heights, other, same", [
    # zero heights and affine ones: the one cell of every point
    (square_config(), (0, 0, 0, 0), (1, 2, 3, 4), True),
    (square_config(), (0, 0, 0, 0), (0, 0, 0, 1), False),
    # a single point: every height is affine on it
    (PointConfig.from_rows([[1, 2]]), (5,), (Fraction(-1, 3),), True),
    # fractional heights, a positive and a negative scale
    (square_config(), (0, Fraction(1, 2), 0, 0), (Fraction(1, 3), Fraction(7, 6), 1, 1), True),
    (square_config(), (0, Fraction(1, 2), 0, 0), (0, Fraction(-1, 2), 0, 0), False),
    (hypersimplex(2, 4), (0, 0, 0, 0, 0, Fraction(1, 3)), (0, 0, 0, 0, 0, 2), True),
])
def test_height_classes_of_zero_single_point_and_fractional_heights(config, heights, other,
                                                                    same):
    assert assert_classes(config, heights, other) == same
    assert assert_classes(config, other, heights) == same
    if same and not any(heights):
        assert not any(exactgeom.height_class(config, other))


def test_coordinatize_eliminates_nothing(monkeypatch):
    # dual vertices are projected lower-facet slopes of the one DD that
    # built the subdivision: coordinatize neither solves nor hulls
    half = Fraction(1, 2)
    plane = PointConfig.from_rows([[half, 0, 1], [1, 1, 0], [3 * half, 2, -1], [2, 0, 0]])
    subs = [
        two_pyramid_subdivision(),
        regular_subdivision(plane, (0, Fraction(1, 3), 0, 2)),
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("coordinatize must not call this")

    for name in ("_rref", "_dd_polar_rays", "hull"):
        monkeypatch.setattr(exactgeom, name, forbidden)
    for sub in subs:
        assert coordinatize(sub).dual_vertices == solved_dual_vertices(sub)


def test_regular_subdivision_runs_one_double_description(monkeypatch):
    calls = []
    dd = exactgeom._dd_polar_rays

    def counted(gens, *seed):
        calls.append(gens[0])
        return dd(gens, *seed)

    monkeypatch.setattr(exactgeom, "_dd_polar_rays", counted)
    cfg = hypersimplex(2, 4)
    sub = regular_subdivision(cfg, (1, 0, 0, 0, 0, 1))
    assert len(sub.maximal_cells) == 2
    # the upward ray is the first generator, so it seeds the DD
    assert calls == [(0, 0, 0, 0, 1)]
    calls.clear()
    regular_subdivision(PointConfig.from_rows([[1, 2]]), (5,))
    assert calls == []


def test_double_description_inserts_the_points_in_order(monkeypatch):
    # the insertion order sets the DD's work, not its output: on Delta(5,10)
    # a random order is about 900 times slower than the sorted one, so a
    # change of order would show as time alone, never as a wrong answer
    recorded = []
    dd = exactgeom._dd_polar_rays

    def recording(gens, *seed):
        recorded.append(list(gens))
        return dd(gens, *seed)

    monkeypatch.setattr(exactgeom, "_dd_polar_rays", recording)
    v = corank_valuation(u12_power(5))
    regular_subdivision(v.owner.polytope(), v.heights())
    [gens] = recorded
    up, points = gens[0], gens[1:]
    assert up == (0,) * (len(up) - 1) + (1,)
    assert len(points) == 252 and all(g[0] == 1 for g in points)
    # each point is (1, its projection, its height)
    projections = [g[1:-1] for g in points]
    assert all(a < b for a, b in zip(projections, projections[1:]))


def test_heights_are_a_tuple_of_one_value_per_point():
    sub = regular_subdivision(square_config(), [0, Fraction(1, 2), 0, 0])
    assert sub.heights == (0, Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError, match="length must match point count"):
        regular_subdivision(square_config(), (0, 0, 0))


# -- cell dimensions from the lattice grading -----------------------------------

def test_cell_dimensions_match_ranks_on_small_spans():
    point = PointConfig.from_rows([[Fraction(1, 2), 3]])
    for sub, gamma in [
        (interval_subdivision(), []),
        (interval_subdivision(), list(interval_subdivision().boundary_facets)),
        (three_path_subdivision(), [0b0001]),
        (two_pyramid_subdivision(), []),
        (two_pyramid_subdivision(), list(two_pyramid_subdivision().boundary_facets)),
        (regular_subdivision(point, (7,)), []),
        (regular_subdivision(square_config(), (0, 1, 1, 0)), []),
    ]:
        span = coordinatize(sub, gamma)
        assert [c.dim for c in span.cells] == span_cell_rank_dims(span)
