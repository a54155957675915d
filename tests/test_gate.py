"""The matroidality gate, read off the valuation, against basis exchange
on every maximal cell: same verdict, and every witness is an edge of its
cell."""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from conftest import (
    alternating_sum,
    square_config,
    triangle_config,
    tropical_minor_valuation,
    u12_power,
)
from tightspan import (
    Matroid,
    ValuatedMatroid,
    non_matroidal_witness,
    parse_census_line,
    regular_subdivision,
    tropical_linear_space,
)
from tightspan.closure import indices, mask_of
from tightspan.matroid import is_hypersimplex_subset
from oracle import brute_cell_edges, brute_exchange, reduced_char_at_zero


# hypothesis's explain phase only annotates a failure report, yet it took
# most of the time these tests need to report a broken gate
NO_EXPLAIN = [p for p in Phase if p is not Phase.explain]


def lifted(m: Matroid, heights):
    return regular_subdivision(m.polytope(), heights)


def cells_pass_exchange(sub) -> bool:
    """Whether every maximal cell's points are the bases of a matroid.  All
    of them are vertices of the cell, so by Gelfand-Goresky-MacPherson-
    Serganova this says that every edge is parallel to some e_i - e_j."""
    pts = sub.config.points
    return all(
        brute_exchange([[i for i, x in enumerate(pts[j]) if x] for j in indices(c)])
        for c in sub.maximal_cells
    )


def check_against_oracle(sub):
    """Assert the gate's verdict equals basis exchange on the cells, and
    that a witness names a maximal cell and one of its edges, parallel to
    no e_i - e_j; return the witness."""
    witness = non_matroidal_witness(sub)
    assert (witness is None) == cells_pass_exchange(sub)
    if witness is not None:
        cell, direction = witness
        assert cell in sub.maximal_cells
        pts = sub.config.points
        edges = {
            tuple(x - y for x, y in zip(pts[b], pts[a]))
            for a, b in brute_cell_edges(sub.config, cell)
        }
        assert direction in edges
        nonzero = sorted(x for x in direction if x)
        assert not (len(nonzero) == 2 and nonzero[0] == -nonzero[1])
    return witness


def census_matroids(name, n, r):
    lines = Path(f"data/census/{name}").read_text().split()
    return [parse_census_line(line, n, r) for line in lines]


CENSUS = (
    census_matroids("census_n4_r2.txt", 4, 2)[::5]
    + census_matroids("census_n5_r2.txt", 5, 2)[::17]
    + census_matroids("census_n5_r3.txt", 5, 3)[::17]
)


def heights_for(m: Matroid):
    size = len(m.bases)
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size)


@settings(max_examples=25, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_gate_matches_oracle_on_uniform_matroids(rn, data):
    m = Matroid.uniform(*rn)
    check_against_oracle(lifted(m, data.draw(heights_for(m))))


@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from(CENSUS), st.data())
def test_gate_matches_oracle_on_census_matroids(m, data):
    check_against_oracle(lifted(m, data.draw(heights_for(m))))


@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_gate_matches_oracle_on_arbitrary_supports(rn, data):
    # any nonempty family of r-subsets, most of them failing basis exchange
    r, n = rn
    subsets = st.sampled_from(list(combinations(range(n), r)))
    family = data.draw(st.lists(subsets, min_size=1, max_size=8, unique=True))
    m = Matroid(n=n, r=r, bases=frozenset(mask_of(b) for b in family))
    check_against_oracle(lifted(m, data.draw(heights_for(m))))


def has_an_octahedron(m: Matroid) -> bool:
    """Whether two bases differ in four elements, so that the exchange pass
    has an inequality to decide."""
    return any((a ^ b).bit_count() == 4 for a, b in combinations(m.bases, 2))


MATROID_SUPPORTS = {
    (r, n): [m for m in census_matroids(f"census_n{n}_r{r}.txt", n, r) if has_an_octahedron(m)]
    for r, n in [(2, 4), (2, 5), (3, 6)]
}


@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_gate_matches_oracle_on_arbitrary_heights_over_matroid_supports(rn, data):
    # the shapes above, with supports that pass basis exchange and hold an
    # octahedron face, so that the exchange pass decides every example
    m = data.draw(st.sampled_from(MATROID_SUPPORTS[rn]))
    check_against_oracle(lifted(m, data.draw(heights_for(m))))


@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_failing_support_names_its_first_diagonal_edge(rn, data):
    # the gate decides the support by basis exchange and walks the point
    # pairs only to name the witness: the first (a, b) in combinations
    # order whose difference is no e_i - e_j and which is an edge of the
    # hull of all points, in the first maximal cell holding both
    r, n = rn
    subsets = st.sampled_from(list(combinations(range(n), r)))
    family = data.draw(st.lists(subsets, min_size=2, max_size=8, unique=True))
    assume(not brute_exchange(family))
    m = Matroid(n=n, r=r, bases=frozenset(mask_of(b) for b in family))
    sub = lifted(m, data.draw(heights_for(m)))
    pts = sub.config.points
    edges = set(brute_cell_edges(sub.config, (1 << len(pts)) - 1))
    a, b = next(
        (a, b)
        for a, b in combinations(range(len(pts)), 2)
        if sum(x != y for x, y in zip(pts[a], pts[b])) > 2 and (a, b) in edges
    )
    pair = 1 << a | 1 << b
    cell = next(c for c in sub.maximal_cells if c & pair == pair)
    direction = tuple(x - y for x, y in zip(pts[b], pts[a]))
    assert non_matroidal_witness(sub) == (cell, direction)


@pytest.mark.parametrize(
    "n, family",
    [
        (4, [[0, 1], [2, 3], [0, 2]]),  # a triangle with the diagonal edge 01-23
        (6, [[0, 1, 2], [3, 4, 5]]),  # one edge, no pair of bases differing in two
        (6, [[0, 1, 2], [0, 1, 3], [3, 4, 5]]),  # 012-345 is an edge of the triangle
    ],
)
def test_support_failing_exchange_is_caught_before_the_heights(n, family):
    m = Matroid(n=n, r=len(family[0]), bases=frozenset(mask_of(b) for b in family))
    for heights in ([0] * len(family), list(range(len(family)))):
        cell, direction = check_against_oracle(lifted(m, heights))
        assert sum(map(abs, direction)) > 2


def test_violated_exchange_names_the_lowest_diagonal():
    # raising 02 and 03 on the octahedron leaves 01-23 the lowest diagonal
    sub = lifted(Matroid.uniform(2, 4), [0, 1, 1, 0, 0, 0])
    cell, direction = check_against_oracle(sub)
    pts = sub.config.points
    assert direction == tuple(x - y for x, y in zip(pts[5], pts[0]))


@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(
    st.sampled_from([(2, 4), (2, 5), (3, 5), (3, 6), (2, 7)]),
    st.booleans(),
    st.data(),
)
def test_tropical_minors_pass_the_gate(rn, blanks, data):
    r, n = rn
    entry = st.integers(0, 9)
    if blanks:
        entry = st.one_of(entry, st.none())
    matrix = data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r)
    )
    valuation = tropical_minor_valuation(matrix)
    if valuation is None:
        return
    vm = ValuatedMatroid(valuation=valuation)
    assert non_matroidal_witness(vm.subdivision) is None
    # the two Euler identities of the lineality-free census spaces, here on
    # transversal supports: Euler characteristic 1 on the bounded cells and
    # -chi_M(0) on the whole complex, M the owner
    m = valuation.owner
    if m.loops():
        return
    tls = tropical_linear_space(vm)
    if tls.report["lineality_dim"] == 0:
        assert alternating_sum(tls.span.bounded_f_vector()) == 1, matrix
        assert alternating_sum(tls.span.f_vector()) == reduced_char_at_zero(
            m.n, m.r, [indices(b) for b in m.bases]
        ), matrix


@settings(max_examples=25, deadline=None, phases=NO_EXPLAIN)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_gate_matches_oracle_next_to_a_valuation(rn, data):
    # tropical minors with one value moved: both verdicts occur; blank
    # entries give transversal supports short of the full hypersimplex
    r, n = rn
    entry = st.one_of(st.integers(0, 9), st.none())
    row = st.lists(entry, min_size=n, max_size=n)
    valuation = tropical_minor_valuation(data.draw(st.lists(row, min_size=r, max_size=r)))
    if valuation is None:
        return
    heights = list(valuation.heights())
    moved = data.draw(st.integers(0, len(heights) - 1))
    heights[moved] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    check_against_oracle(lifted(valuation.owner, heights))


def test_gate_builds_no_hull_and_computes_no_rank(monkeypatch):
    from tightspan import exactgeom

    sub = lifted(u12_power(3), [0, 1, 1, 0, 2, 0, 0, 1])
    expected = non_matroidal_witness(sub)
    assert expected is not None
    flat = lifted(Matroid.uniform(3, 6), [0] * 20)

    def forbidden(*args, **kwargs):
        raise AssertionError("the gate must not call this")

    for name in ("hull", "_rref", "_nullspace"):
        monkeypatch.setattr(exactgeom, name, forbidden)
    assert non_matroidal_witness(sub) == expected
    assert non_matroidal_witness(flat) is None


def test_gate_preconditions_are_value_errors():
    # not 0/1
    tri = regular_subdivision(triangle_config(), (0, 0, 0))
    assert not is_hypersimplex_subset(tri.config.points)
    with pytest.raises(ValueError, match="0/1"):
        non_matroidal_witness(tri)
    # 0/1 but with coordinate sums 0, 1 and 2
    square = regular_subdivision(square_config(), (0, 0, 0, 1))
    assert not is_hypersimplex_subset(square.config.points)
    with pytest.raises(ValueError, match="coordinate sum"):
        non_matroidal_witness(square)
