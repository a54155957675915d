"""Valuated matroids, tropical linear spaces, Bergman fans, Speyer bounds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    alternating_sum,
    cell_node,
    fano_matroid,
    quartet_vm,
    tropical_minor_valuation,
    u12_power,
)
from tightspan import (
    Matroid,
    MatroidError,
    NonMatroidalValuation,
    SpeyerBoundWarning,
    Valuation,
    ValuatedMatroid,
    bergman_fan,
    corank_valuation,
    speyer_bound,
    speyer_bounds,
    tropical_linear_space,
)
from tightspan import troplin
from tightspan.closure import indices
from tightspan.matroid import sorted_bases
from tightspan.oracle import (
    _orank,
    brute_tls_membership,
    cell_at,
    connected_components,
    covers_point,
    reduced_char_at_zero,
    solved_dual_vertices,
    span_cell_rank_dims,
)
from tightspan.subdivision import tight_span_closure


def mask(elements):
    return sum(1 << e for e in elements)


def sum_zero(xs):
    s = sum(xs, Fraction(0)) / len(xs)
    return [Fraction(x) - s for x in xs]


def random_rational_point(rng, n, spread=24):
    return sum_zero([Fraction(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(n)])


# -- valuated matroids ---------------------------------------------------------

def test_octahedron_valuation_is_matroidal():
    vm = quartet_vm()
    assert len(vm.subdivision.maximal_cells) == 2


def test_non_matroidal_valuation_rejected_with_witness():
    m = Matroid.uniform(2, 4)
    vals = {b: Fraction(0) for b in m.bases}
    vals[mask([0, 2])] = Fraction(1)
    vals[mask([0, 3])] = Fraction(1)
    with pytest.raises(NonMatroidalValuation) as exc:
        ValuatedMatroid(valuation=Valuation(owner=m, values=vals))
    edge = exc.value.edge
    nonzero = sorted(x for x in edge if x != 0)
    assert not (len(nonzero) == 2 and nonzero[0] == -nonzero[1])
    assert f"edge direction {edge}" in str(exc.value)
    assert "edge direction (-1, -1, 1, 1)" in str(exc.value)


@pytest.mark.parametrize(
    "n, family, heights, cell, edge",
    [
        (4, [[0, 1], [0, 2], [2, 3]], (0, 0, 0), (0, 1, 2), (-1, -1, 1, 1)),
        (
            5,
            [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3], [2, 4], [3, 4]],
            (2, 0, 1, 0, 0, 1, 0),
            (0, 1, 2, 3, 5, 6),
            (-1, -1, 1, 0, 1),
        ),
    ],
)
def test_support_failing_exchange_is_rejected_with_its_witness(
    n, family, heights, cell, edge
):
    # the constructor does not check exchange; the gate finds the failing
    # support and names its first diagonal edge in point-pair order, in the
    # first maximal cell holding it (family in basis order, one height each)
    m = Matroid(n=n, r=len(family[0]), bases=frozenset(mask(b) for b in family))
    assert not m.satisfies_exchange()
    values = dict(zip(sorted_bases(m), map(Fraction, heights)))
    with pytest.raises(NonMatroidalValuation) as exc:
        ValuatedMatroid(valuation=Valuation(owner=m, values=values))
    assert exc.value.cell_points == cell
    assert exc.value.edge == edge


def test_cell_at_examples():
    vm = quartet_vm()
    at_zero = cell_at(vm, [0, 0, 0, 0])
    assert len(at_zero.bases) == 5
    assert mask([2, 3]) not in at_zero.bases

    trivial = ValuatedMatroid(valuation=Valuation.zero(Matroid.uniform(2, 4)))
    assert len(cell_at(trivial, [0, 0, 0, 0]).bases) == 6


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=6), min_size=4, max_size=4),
    st.fractions(max_denominator=6),
)
def test_cell_at_translation_invariance(xs, lam):
    vm = quartet_vm()
    shifted = [x + lam for x in xs]
    assert cell_at(vm, xs).bases == cell_at(vm, shifted).bases


# -- tropical linear spaces ------------------------------------------------------

def test_quartet_tree():
    tls = tropical_linear_space(quartet_vm())
    assert tls.span.f_vector() == (2, 5)
    assert tls.span.bounded_f_vector() == (2, 1)
    assert tls.report["dim"] + 1 == tls.report["r"]
    assert tls.report["lineality_dim"] == 0
    # leaf rays are the four coordinate directions, as sum-zero vectors
    leaf = {(3, -1, -1, -1), (-1, 3, -1, -1), (-1, -1, 3, -1), (-1, -1, -1, 3)}
    assert leaf <= set(tls.span.dual_rays)


def test_quartet_membership_theorem():
    tls = tropical_linear_space(quartet_vm())
    rng = random.Random(20240809)
    agree = 0
    for _ in range(120):
        x = random_rational_point(rng, 4)
        assert covers_point(tls, x) == brute_tls_membership(tls.source, x)
        agree += 1
    assert agree == 120


def test_corank_lift_u12_u12_matches_quartet_combinatorics():
    v = corank_valuation(u12_power(2))
    vm = ValuatedMatroid(valuation=v)
    tls = tropical_linear_space(vm)
    assert tls.span.bounded_f_vector() == (2, 1)
    assert tls.span.f_vector() == (2, 5)


def test_tls_rejects_loops():
    with pytest.raises(MatroidError):
        vm = ValuatedMatroid(valuation=Valuation.zero(Matroid.from_bases(3, [[0, 1]])))
        tropical_linear_space(vm)
    with pytest.raises(MatroidError):
        bergman_fan(Matroid.from_bases(3, [[0, 1]]))


# -- Bergman fans ----------------------------------------------------------------

def test_bergman_u23_tripod():
    tls = bergman_fan(Matroid.uniform(2, 3))
    assert tls.span.f_vector() == (1, 3)
    assert tls.span.bounded_f_vector() == (1,)
    assert set(tls.span.dual_rays) == {(2, -1, -1), (-1, 2, -1), (-1, -1, 2)}
    assert tls.report["dim"] == 1


def test_bergman_rank_one_is_a_point():
    for n in (1, 2, 3, 5):
        tls = bergman_fan(Matroid.uniform(1, n))
        assert tls.span.f_vector() == (1,)
        assert tls.report["dim"] == 0
        assert tls.report["lineality_dim"] == 0


@pytest.mark.parametrize("r, n", [(2, 4), (3, 6), (4, 7), (3, 8), (5, 9)])
def test_bergman_fan_of_a_uniform_matroid_has_binomial_f_vector(r, n):
    # in its coarsest structure the fan is the union of the cones spanned by
    # at most r - 1 of the unit vectors e_i: its cells of dimension d are
    # the d-subsets of [n], and its one bounded cell is the origin; the
    # binomials are computed here, not read off the program
    tls = bergman_fan(Matroid.uniform(r, n))
    assert tls.span.f_vector() == tuple(comb(n, d) for d in range(r))
    assert tls.span.bounded_f_vector() == (1,)


@pytest.mark.parametrize(
    "r, n", [(2, 5), (2, 6), (2, 8), (3, 6), (3, 7), (3, 8), (4, 8), (3, 9)]
)
@pytest.mark.parametrize("seed", range(4))
def test_a_generic_stiefel_space_attains_the_speyer_bound(r, n, seed):
    # the min-plus maximal minors of an r x n integer matrix in which every
    # minor has one minimizing permutation span a space whose bounded
    # f-vector is C(n - 2i, r - i) C(n - i - 1, i - 1), i = 1..r (Speyer,
    # Tropical linear spaces; Fink and Rincon, Stiefel tropical linear
    # spaces); the binomials are computed here, not read off the program
    rng = random.Random(100 * seed + 10 * r + n)
    matrix = [[rng.randint(0, 10**6) for _ in range(n)] for _ in range(r)]
    for cols in combinations(range(n), r):
        sums = sorted(sum(matrix[i][c] for i, c in enumerate(p)) for p in permutations(cols))
        assert sums[0] < sums[1], cols
    tls = minor_tls(matrix)
    assert tls.span.bounded_f_vector() == tuple(
        comb(n - 2 * i, r - i) * comb(n - i - 1, i - 1) for i in range(1, r + 1)
    )


def test_bergman_disconnected_lineality():
    m = u12_power(2)
    tls = bergman_fan(m)
    assert tls.span.f_vector() == (1,)
    assert tls.report["lineality_dim"] == 1
    assert len(tls.lineality_basis) == 1
    assert tls.report["dim"] + 1 == m.r
    # free matroid: everything is lineality
    free = Matroid.uniform(3, 3)
    tls = bergman_fan(free)
    assert tls.report["dim"] + 1 == 3
    assert tls.report["lineality_dim"] == 2


def test_lineality_basis_spans_the_lineality_off_the_ones():
    u23 = Matroid.uniform(2, 3)
    matroids = [u12_power(d) for d in (2, 3, 4)] + [
        u23.direct_sum(Matroid.uniform(1, 1)),
        u23.direct_sum(Matroid.uniform(1, 2)).direct_sum(Matroid.uniform(2, 4)),
    ]
    for m in matroids:
        tls = bergman_fan(m)
        basis = list(tls.lineality_basis)
        assert basis, m
        for v in basis:
            assert all(isinstance(x, int) for x in v) and gcd(*v) == 1, (m, v)
            assert sum(v) == 0, (m, v)
        assert _orank(basis) == len(basis) == tls.report["lineality_dim"], m
        with_ones = basis + [(1,) * m.n]
        lineality = list(tls.span.lineality)
        assert _orank(with_ones) == _orank(lineality) == _orank(with_ones + lineality), m
    assert bergman_fan(u12_power(4)).lineality_basis == (
        (3, 3, -1, -1, -1, -1, -1, -1),
        (-1, -1, 3, 3, -1, -1, -1, -1),
        (-1, -1, -1, -1, 3, 3, -1, -1),
    )


def test_bergman_fan_is_normal_fan_restriction():
    # trivial valuation: the dual complex is the normal fan; loop-free cells
    # of U(2,3) are the vertex and the three maximal-cone-dual rays
    tls = bergman_fan(Matroid.uniform(2, 3))
    sub = tls.source.subdivision
    assert sub.maximal_cells == (0b111,)
    assert len(sub.boundary_facets) == 3


def test_rank_and_connectivity_identities():
    cases = [
        Matroid.uniform(2, 4),
        Matroid.uniform(3, 5),
        fano_matroid(),
        u12_power(2),
        u12_power(3),
        Matroid.from_bases(4, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),  # U(2,3) + coloop 3
    ]
    for m in cases:
        tls = bergman_fan(m)
        assert tls.report["dim"] + 1 == m.r, m
        assert tls.report["lineality_dim"] + 1 == len(connected_components(m)), m


@pytest.mark.parametrize(
    "m",
    [Matroid.uniform(2, 4), fano_matroid(), u12_power(2)],
    ids=["u24", "fano", "u12+u12"],
)
def test_bergman_membership_theorem(m):
    tls = bergman_fan(m)
    rng = random.Random(m.n * 1000 + m.r)
    for _ in range(60):
        x = random_rational_point(rng, m.n)
        assert covers_point(tls, x) == brute_tls_membership(tls.source, x)


def test_relative_interior_samples_hit_their_cell():
    # a strictly positive combination of a cell's dual vertices and rays has
    # that cell's subdivision face as its exact minimizer set
    for tls in [tropical_linear_space(quartet_vm()), bergman_fan(Matroid.uniform(2, 3))]:
        sub = tls.source.subdivision
        order = sorted_bases(tls.source.matroid)
        for cell in tls.span.cells:
            verts = [tls.span.dual_vertices[i] for i in cell.vertices]
            rays = [tls.span.dual_rays[i] for i in cell.rays]
            x = [sum(v[c] for v in verts) / len(verts) for c in range(tls.report["n"])]
            for t, ray in enumerate(rays, start=1):
                x = [a + 3 * t * r for a, r in zip(x, ray)]
            argmin = cell_at(tls.source, x)
            got = sum(1 << order.index(b) for b in argmin.bases)
            assert got == tight_span_closure(sub).cell(cell_node(tls.span, cell))


# -- Speyer bounds ----------------------------------------------------------------

def test_speyer_bound_values():
    assert speyer_bounds(6, 3) == (6, 6, 1)
    assert speyer_bounds(8, 3) == (15, 20, 6)
    assert speyer_bounds(8, 4) == (20, 30, 12, 1)
    for n in (3, 4, 7):
        assert speyer_bounds(n, 2) == (n - 2, n - 3) if n > 3 else True
        assert speyer_bound(n, 2, 1) == n - 2
    assert speyer_bound(4, 2, 2) == 1
    with pytest.raises(ValueError):
        speyer_bound(3, 4, 1)


@pytest.mark.parametrize(
    "bounds", [(1, 1), (2,)], ids=["entry-above", "longer-than-bounds"]
)
def test_speyer_warning_fires_above_the_bound(monkeypatch, bounds):
    # the quartet's bounded f-vector (2, 1) against lowered bounds: one entry
    # above its bound, or more dimensions than the bounds cover
    monkeypatch.setattr(troplin, "speyer_bounds", lambda n, r: bounds)
    with pytest.warns(SpeyerBoundWarning, match=r"\(2, 1\) exceeds the conjectured"):
        tropical_linear_space(quartet_vm())


def test_tls_report_fields():
    tls = tropical_linear_space(quartet_vm())
    rep = tls.report
    assert rep["n"] == 4 and rep["r"] == 2
    assert rep["bounded_f_vector"] == [2, 1]
    assert rep["speyer_bounds"] == [2, 1]
    assert rep["within_bound"] == [True, True]
    assert rep["lineality_dim"] == 0
    assert rep["dim"] == 1


def test_report_bounds_hold_on_census_sample():
    import glob
    import re

    checked = 0
    for path in sorted(glob.glob("data/census/census_n4_*.txt")):
        n, r = map(int, re.search(r"census_n(\d+)_r(\d+)", path).groups())
        from tightspan import parse_census_line

        for line in Path(path).read_text().splitlines():
            m = parse_census_line(line.strip(), n, r)
            if m.loops():
                continue
            rep = bergman_fan(m).report
            if rep["lineality_dim"] == 0:
                assert all(rep["within_bound"]), (path, line)
            checked += 1
    assert checked > 10


def test_to_json_has_interface_fields():
    tls = tropical_linear_space(quartet_vm())
    data = tls.as_dict()
    for key in ("n", "r", "f_vector", "bounded_f_vector", "speyer_bounds",
                "lineality_dim", "vertices", "rays", "cells"):
        assert key in data
    assert data["f_vector"] == [2, 5]


# -- metamorphic checks on generated valuated matroids -------------------------

def minor_tls_of(valuation):
    return tropical_linear_space(ValuatedMatroid(valuation=valuation))


def minor_tls(matrix):
    return minor_tls_of(tropical_minor_valuation(matrix))


def minor_matrices(r, n, data, infinite=False):
    entry = st.integers(0, 9)
    if infinite:
        entry = st.one_of(entry, st.none())
    row = st.lists(entry, min_size=n, max_size=n)
    return data.draw(st.lists(row, min_size=r, max_size=r))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_permuting_the_ground_set_keeps_both_f_vectors(rn, data):
    r, n = rn
    matrix = minor_matrices(r, n, data, infinite=True)
    valuation = tropical_minor_valuation(matrix)
    assume(valuation is not None and not valuation.owner.loops())
    perm = data.draw(st.permutations(range(n)))
    tls = minor_tls(matrix)
    permuted = minor_tls([[row[j] for j in perm] for row in matrix])
    assert permuted.span.f_vector() == tls.span.f_vector()
    assert permuted.span.bounded_f_vector() == tls.span.bounded_f_vector()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_adding_a_linear_function_translates_the_space(rn, data):
    # v'(B) = v(B) + sum of a_i over B: the minors of the matrix with a_i
    # added to column i.  The subdivision is the same, and every dual vertex
    # x (sum zero, the lineality being the all-ones line) moves to
    # x + a - mean(a) * (1, ..., 1).
    r, n = rn
    matrix = minor_matrices(r, n, data)
    a = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    tls = minor_tls(matrix)
    moved = minor_tls([[x + y for x, y in zip(row, a)] for row in matrix])
    assert tls.span.lineality == moved.span.lineality == ((1,) * n,)
    assert moved.span.f_vector() == tls.span.f_vector()
    assert moved.span.bounded_f_vector() == tls.span.bounded_f_vector()
    shift = [Fraction(x) - Fraction(sum(a), n) for x in a]
    assert moved.span.dual_vertices == tuple(
        tuple(x + s for x, s in zip(v, shift)) for v in tls.span.dual_vertices
    )


@pytest.fixture(scope="module")
def generated_spaces():
    """Flagship, U(1,2)^3's Bergman fan, six 3x7 tropical-minor valuations,
    and the corank lifts and Bergman fans of census n4_r2, n5_r2, n5_r3."""
    from tightspan import parse_census_line

    rng = random.Random(5)
    spaces = [
        tropical_linear_space(ValuatedMatroid(valuation=corank_valuation(u12_power(4)))),
        bergman_fan(u12_power(3)),
    ]
    while len(spaces) < 8:
        valuation = tropical_minor_valuation(
            [[rng.randint(0, 10**6) for _ in range(7)] for _ in range(3)]
        )
        spaces.append(minor_tls_of(valuation))
    for name, n, r in [("n4_r2", 4, 2), ("n5_r2", 5, 2), ("n5_r3", 5, 3)]:
        for line in Path(f"data/census/census_{name}.txt").read_text().split():
            m = parse_census_line(line, n, r)
            v = corank_valuation(m)
            spaces.append(tropical_linear_space(ValuatedMatroid(valuation=v)))
            if not m.loops():
                spaces.append(bergman_fan(m))
    assert any(tls.span.lineality_dim > 1 for tls in spaces)
    return spaces


def test_cell_dimensions_are_the_lattice_grading(generated_spaces):
    # coordinatize reads each cell's dimension off its height in the Hasse
    # diagram; the oracle recomputes it as a rank of the dual generators
    for tls in generated_spaces:
        assert [c.dim for c in tls.span.cells] == span_cell_rank_dims(tls.span)


def test_dual_vertices_are_the_solved_cell_systems(generated_spaces):
    # coordinatize projects the DD's lower-facet slopes off the lineality;
    # the oracle solves each maximal cell's linear system
    for tls in generated_spaces:
        assert tls.span.dual_vertices == solved_dual_vertices(tls.source.subdivision)


def test_lineality_free_spaces_satisfy_two_euler_identities(generated_spaces):
    # measured identities, not derived here: the bounded cells have Euler
    # characteristic 1, and the whole complex has -chi_M(0) for M the
    # valuation's owner; spaces with lineality are left out
    checked = 0
    for tls in generated_spaces:
        if tls.report["lineality_dim"]:
            continue
        m = tls.source.matroid
        assert alternating_sum(tls.span.bounded_f_vector()) == 1, m
        assert alternating_sum(tls.span.f_vector()) == reduced_char_at_zero(
            m.n, m.r, [indices(b) for b in m.bases]
        ), m
        checked += 1
    assert checked == 464  # the census spaces, the flagship and the six minors


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_scaling_the_valuation_scales_the_dual_vertices(rn, data):
    # v' = lam * v for a positive rational lam: the same subdivision, so
    # the same cells, rays and f-vectors, and every dual vertex times lam
    r, n = rn
    matrix = minor_matrices(r, n, data, infinite=True)
    valuation = tropical_minor_valuation(matrix)
    assume(valuation is not None and not valuation.owner.loops())
    lam = data.draw(st.sampled_from([Fraction(3, 7), Fraction(5, 2), Fraction(1, 9)]))
    scaled = Valuation(
        owner=valuation.owner, values={b: lam * x for b, x in valuation.values.items()}
    )
    tls, moved = minor_tls_of(valuation), minor_tls_of(scaled)
    assert moved.source.subdivision.maximal_cells == tls.source.subdivision.maximal_cells
    assert moved.span.cells == tls.span.cells
    assert moved.span.dual_rays == tls.span.dual_rays
    assert moved.span.f_vector() == tls.span.f_vector()
    assert moved.span.bounded_f_vector() == tls.span.bounded_f_vector()
    assert moved.span.dual_vertices == tuple(
        tuple(lam * x for x in v) for v in tls.span.dual_vertices
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_membership_oracle_agrees_on_generated_valuations(rn, data):
    # random rational points, and one point inside every cell of the space
    r, n = rn
    matrix = minor_matrices(r, n, data, infinite=True)
    valuation = tropical_minor_valuation(matrix)
    assume(valuation is not None and not valuation.owner.loops())
    tls = minor_tls_of(valuation)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    points = [random_rational_point(rng, n) for _ in range(20)]
    for cell in tls.span.cells:
        verts = [tls.span.dual_vertices[i] for i in cell.vertices]
        x = [sum(v[c] for v in verts) / len(verts) for c in range(n)]
        for ray in cell.rays:
            t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            x = [a + t * b for a, b in zip(x, tls.span.dual_rays[ray])]
        points.append(x)
    for x in points:
        assert covers_point(tls, x) == brute_tls_membership(tls.source, x)
    assert all(covers_point(tls, x) for x in points[20:])
