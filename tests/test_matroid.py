"""Matroid rank, flats, polytopes, sums, corank lifts and census parsing."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fano_lines, fano_matroid, hypersimplex, u12_power
from tightspan import (
    Matroid,
    MatroidError,
    corank_valuation,
    ganter_hasse,
    hull,
    non_matroidal_witness,
    parse_census_line,
    regular_subdivision,
)
from tightspan.cli import _matroid
from tightspan.matroid import census_order, format_census_line, sorted_bases
from oracle import brute_closed_sets, brute_exchange, connected_components


def mask(elements):
    return sum(1 << e for e in elements)


def test_rank_examples():
    u24 = Matroid.uniform(2, 4)
    assert u24.rank(0) == 0
    assert u24.rank(mask([1, 3])) == 2
    fano = fano_matroid()
    for line in fano_lines():
        assert fano.rank(mask(line)) == 2
    assert fano.rank(mask(range(7))) == 3


def test_rank_monotone_submodular():
    fano = fano_matroid()
    import random

    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(0, 127)
        b = rng.randint(0, 127)
        assert fano.rank(a) <= fano.rank(a | b)
        assert fano.rank(a | b) + fano.rank(a & b) <= fano.rank(a) + fano.rank(b)


def test_closure_examples():
    u23 = Matroid.uniform(2, 3)
    cs = u23.closure_system()
    assert cs.close(0) == 0
    assert cs.close(0b001) == 0b001
    assert cs.close(0b011) == 0b111

    with_loop = Matroid.from_bases(3, [[0, 1]])
    assert with_loop.closure_system().close(0) == 0b100
    assert with_loop.loops() == 0b100
    assert with_loop.loops()
    assert not Matroid.uniform(2, 5).loops()


def test_maclane_steinitz_exchange_exhaustive():
    for m in [Matroid.uniform(2, 4), fano_matroid(), u12_power(2)]:
        cs = m.closure_system()
        n = m.n
        for a in range(1 << n):
            ca = cs.close(a)
            for x in range(n):
                cax = cs.close(a | (1 << x))
                gained = cax & ~ca
                for y in range(n):
                    if gained >> y & 1:
                        assert cs.close(a | (1 << y)) >> x & 1


def test_flats_match_brute_force():
    for m in [Matroid.uniform(2, 4), Matroid.uniform(3, 5), fano_matroid(), u12_power(2)]:
        d = ganter_hasse(m.closure_system())
        nodes, covers = brute_closed_sets(m.closure_system())
        assert set(d.nodes) == nodes
        assert {(d.nodes[a], d.nodes[b]) for a, b in d.arcs} == covers


def test_fano_flat_counts():
    d = ganter_hasse(fano_matroid().closure_system())
    from tightspan import poset_statistics

    assert poset_statistics(d, fano_matroid().rank) == [1, 7, 7, 1]


def test_matroid_polytopes():
    tri = Matroid.uniform(1, 3).polytope()
    h, _, flags = hull(tri)
    assert len(h.facets) == 3 and all(flags)

    oct_ = Matroid.uniform(2, 4).polytope()
    h, _, flags = hull(oct_)
    assert len(oct_.points) == 6 and len(h.facets) == 8 and all(flags)

    fano_p = fano_matroid().polytope()
    h, _, flags = hull(fano_p)
    assert len(fano_p.points) == 28 and all(flags)
    assert fano_p.dim == 7


def _polytope_is_matroidal(m):
    zero = (0,) * len(m.bases)
    return non_matroidal_witness(regular_subdivision(m.polytope(), zero)) is None


def test_polytope_vertices_biject_with_bases_and_pass_edge_test():
    for m in [Matroid.uniform(2, 4), u12_power(2), Matroid.from_bases(3, [[0, 1]])]:
        cfg = m.polytope()
        _, _, flags = hull(cfg)
        assert all(flags)
        assert len(cfg.points) == len(m.bases)
        assert _polytope_is_matroidal(m)


def test_is_matroidal_examples():
    cfg = hypersimplex(2, 4)
    trivial = regular_subdivision(cfg, (0,) * 6)
    assert non_matroidal_witness(trivial) is None

    # lift one vertex: the octahedron splits into two matroid pyramids
    single = regular_subdivision(cfg, (0, 0, 0, 0, 0, 1))
    assert non_matroidal_witness(single) is None

    # lifting two vertices sharing element 0 creates a diagonal edge
    bad = regular_subdivision(cfg, (0, 1, 1, 0, 0, 0))
    witness = non_matroidal_witness(bad)
    assert witness is not None
    cell, edge = witness
    nonzero = sorted(x for x in edge if x != 0)
    assert not (len(nonzero) == 2 and nonzero[0] == -nonzero[1])
    assert non_matroidal_witness(bad) is not None


def test_cell_matroid_on_coordinate_face_has_loop():
    cfg = hypersimplex(2, 4)
    sub = regular_subdivision(cfg, (0,) * 6)
    face0 = sum(
        1 << i for i, p in enumerate(cfg.points) if p[0] == 0
    )
    cell = Matroid.from_bases(
        4,
        [
            [j for j in range(4) if p[j] == 1]
            for i, p in enumerate(cfg.points)
            if face0 >> i & 1
        ],
    )
    assert cell.loops() == 0b0001


def test_corank_valuations():
    u24 = Matroid.uniform(2, 4)
    v = corank_valuation(u24)
    assert all(x == 0 for x in v.values.values())

    m = u12_power(2)
    v = corank_valuation(m)
    assert v.values[mask([0, 1])] == 1
    assert v.values[mask([2, 3])] == 1
    assert v.values[mask([0, 2])] == 0

    fano = fano_matroid()
    v = corank_valuation(fano)
    ones = {b for b, val in v.values.items() if val == 1}
    assert ones == {mask(l) for l in fano_lines()}
    assert all(val in (0, 1) for val in v.values.values())


def test_corank_subdivision_is_matroidal_and_contains_polytope():
    from tightspan.subdivision import tight_span_closure

    for m in [u12_power(2), Matroid.from_bases(4, [[0, 1], [0, 2], [0, 3]])]:
        v = corank_valuation(m)
        cfg = v.owner.polytope()
        sub = regular_subdivision(cfg, v.heights())
        assert non_matroidal_witness(sub) is None
        base_mask = sum(
            1 << i for i, b in enumerate(sorted_bases(v.owner)) if b in m.bases
        )
        # the matroid polytope occurs as a cell: it is cut out exactly by
        # the generators (maximal cells and boundary facets) containing it
        gens = list(sub.maximal_cells) + list(sub.boundary_facets)
        dual = sum(1 << j for j, g in enumerate(gens) if base_mask & ~g == 0)
        assert dual != 0
        assert tight_span_closure(sub).cell(dual) == base_mask


def test_direct_sum_and_components():
    m = u12_power(2)
    assert m.n == 4 and m.r == 2
    assert m.bases == {mask([0, 2]), mask([0, 3]), mask([1, 2]), mask([1, 3])}
    assert len(connected_components(Matroid.uniform(2, 4))) == 1
    assert len(connected_components(u12_power(4))) == 4
    # two coloops and a loop: three singleton components
    with_loop = Matroid.from_bases(3, [[0, 1]])
    assert sorted(connected_components(with_loop)) == [0b001, 0b010, 0b100]
    # a genuinely 2-component case: U(2,3) plus a loop element
    u23_loop = Matroid.from_bases(4, [[0, 1], [0, 2], [1, 2]])
    assert sorted(connected_components(u23_loop)) == [0b0111, 0b1000]


def test_the_constructors_refuse_an_empty_basis_family_and_a_bad_shape():
    with pytest.raises(MatroidError, match="at least one basis"):
        Matroid(4, 2, frozenset())
    for r, n in [(0, 3), (4, 3), (-1, 2)]:
        with pytest.raises(MatroidError, match="1 <= r <= n"):
            Matroid.uniform(r, n)


def test_exchange_validation():
    with pytest.raises(MatroidError):
        Matroid.from_bases(4, [[0, 1], [2, 3]])
    m = Matroid(n=4, r=2, bases=frozenset({mask([0, 1]), mask([2, 3])}))
    assert not _polytope_is_matroidal(m)


def test_large_ground_sets_defer_to_polytope_criterion():
    # the raw constructor checks no exchange; the matroidality gate on the
    # zero-height subdivision decides an n = 11 support on demand
    bad = Matroid(n=11, r=2, bases=frozenset({mask([0, 1]), mask([2, 3])}))
    assert _polytope_is_matroidal(bad) is False
    good = Matroid.from_bases(11, [[i] for i in range(11)])
    assert _polytope_is_matroidal(good) is True


def test_the_reader_checks_a_stated_rank():
    pairs = [list(b) for b in combinations(range(4), 2)]
    for doc in ({"n": 4, "r": 2, "bases": pairs}, {"n": 4, "bases": pairs}):
        assert _matroid(doc) == Matroid.uniform(2, 4)
    with pytest.raises(ValueError, match="r = 3 differs from the basis size 2"):
        _matroid({"n": 4, "r": 3, "bases": pairs})


def test_census_parsing():
    assert parse_census_line("111", 3, 1).bases == Matroid.uniform(1, 3).bases
    assert parse_census_line("111111", 4, 2).bases == Matroid.uniform(2, 4).bases
    assert parse_census_line("011110", 4, 2).bases == u12_power(2).bases
    assert parse_census_line("0*1110", 4, 2).bases == u12_power(2).bases

    # revlex reverses the subset order
    lex = parse_census_line("100000", 4, 2)
    rev = parse_census_line("000001", 4, 2, order="revlex")
    assert lex.bases == rev.bases == {mask([0, 1])}

    with pytest.raises(MatroidError):
        parse_census_line("11", 3, 1)
    with pytest.raises(MatroidError):
        parse_census_line("000000", 4, 2)
    with pytest.raises(MatroidError):
        parse_census_line("100001", 4, 2)
    with pytest.raises(MatroidError):
        parse_census_line("2111", 4, 1)


def test_an_unknown_census_order_is_refused():
    with pytest.raises(MatroidError, match="unknown census ordering 'colex'"):
        census_order(4, 2, "colex")
    with pytest.raises(MatroidError, match="unknown census ordering"):
        parse_census_line("111111", 4, 2, order="colex")


def test_census_round_trip():
    for m in [Matroid.uniform(2, 4), u12_power(2), fano_matroid()]:
        line = format_census_line(m)
        assert parse_census_line(line, m.n, m.r).bases == m.bases


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_constructor_agrees_with_exchange_oracle(n, data):
    # any nonempty family of r-subsets of [n], most of them non-matroids;
    # or all of them but at most two, which meets the uniform shortcut and
    # the swap sets too large to miss a basis far more often
    r = data.draw(st.integers(min_value=0, max_value=n))
    subsets = list(combinations(range(n), r))
    if data.draw(st.booleans()):
        dropped = data.draw(
            st.lists(
                st.sampled_from(subsets), max_size=min(2, len(subsets) - 1), unique=True
            )
        )
        family = [s for s in subsets if s not in dropped]
    else:
        family = data.draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
    expected = brute_exchange(family)
    raw = Matroid(n=n, r=r, bases=frozenset(mask(b) for b in family))
    assert raw.satisfies_exchange() == expected
    try:
        Matroid.from_bases(n, family)
        assert expected
    except MatroidError:
        assert not expected
