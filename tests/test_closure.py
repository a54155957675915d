"""Closure systems and the Hasse diagram enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closure_corpus, identity_system, vertex_system, square_config, u12_power
from tightspan import (
    ClosureSystem,
    GroundSet,
    Matroid,
    NodeCapExceeded,
    ValuatedMatroid,
    corank_valuation,
    ganter_hasse,
    poset_statistics,
)
from tightspan.closure import HasseDiagram, IncidenceClosure, indices, mask_of, transpose
from oracle import (
    brute_closed_sets,
    brute_incidence_close,
    brute_transpose,
    restrict_to_lower_set,
)
from tightspan.subdivision import tight_span_closure
from tightspan.troplin import _loop_faces


def arcs_as_masks(diagram):
    return {(diagram.nodes[a], diagram.nodes[b]) for a, b in diagram.arcs}


@given(st.integers(min_value=0, max_value=1 << 130))
def test_indices_and_mask_of_invert_each_other(m):
    elements = indices(m)
    assert all(a < b for a, b in zip(elements, elements[1:]))
    assert mask_of(elements) == m


@st.composite
def bit_matrix(draw):
    """Row masks over ``width`` columns, widths from 0 past one machine word."""
    width = draw(st.sampled_from([0, 1, 2, 5, 8, 63, 64, 65, 130]))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=70))
    return rows, width


@given(bit_matrix(), st.booleans())
def test_transpose_matches_the_bitwise_loop(case, as_tuple):
    rows, width = case
    rows = tuple(rows) if as_tuple else rows
    cols = transpose(rows, width)
    assert cols == brute_transpose(rows, width)
    assert len(cols) == width
    assert transpose(cols, len(rows)) == tuple(rows)


@pytest.mark.parametrize("rows, width, expected", [
    ((), 0, ()),
    ((), 3, (0, 0, 0)),
    ((0, 0), 0, ()),
    ((0b100,), 3, (0, 0, 1)),
    ((0b100, 0b101, 0b001), 3, (0b110, 0, 0b011)),
    ((1 << 64,), 65, (0,) * 64 + (1,)),
])
def test_transpose_at_the_edges(rows, width, expected):
    assert transpose(rows, width) == brute_transpose(rows, width) == expected


@pytest.mark.parametrize("rows, width", [((1,), 0), ((0b1000,), 3), ((0, 0b11), 1),
                                         ((1 << 64,), 64)])
def test_a_row_wider_than_the_width_raises(rows, width):
    with pytest.raises(IndexError):
        brute_transpose(rows, width)
    with pytest.raises(ValueError, match="wider than"):
        transpose(rows, width)
    with pytest.raises(ValueError, match="outside the point set"):
        IncidenceClosure(rows, width)


def test_identity_boolean_lattice():
    h = ganter_hasse(identity_system(3))
    assert len(h.nodes) == 8
    assert len(h.arcs) == 12
    assert len(set(h.nodes)) == len(h.nodes)
    assert h.closure_calls <= 3 * 8


def test_u23_flats():
    m = Matroid.uniform(2, 3)
    h = ganter_hasse(m.closure_system())
    assert set(h.nodes) == {0, 0b001, 0b010, 0b100, 0b111}
    expected = {(0, 1), (0, 2), (0, 4), (1, 7), (2, 7), (4, 7)}
    assert arcs_as_masks(h) == expected


def test_square_vertex_lattice():
    h = ganter_hasse(vertex_system(square_config()))
    assert len(h.nodes) == 10
    assert len(h.arcs) == 16
    nodes, covers = brute_closed_sets(vertex_system(square_config()))
    assert set(h.nodes) == nodes
    assert arcs_as_masks(h) == covers


@pytest.mark.parametrize("name,system", closure_corpus())
def test_corpus_matches_brute_force(name, system):
    diagram = ganter_hasse(system)
    nodes, covers = brute_closed_sets(system)
    assert set(diagram.nodes) == nodes, name
    assert arcs_as_masks(diagram) == covers, name
    # output-sensitivity instrumentation
    assert diagram.closure_calls <= system.ground.size * len(diagram.nodes)
    # every node is closed, each stored once
    assert len(set(diagram.nodes)) == len(diagram.nodes)
    for m in diagram.nodes:
        assert system.close(m) == m


@pytest.mark.parametrize("name,system", closure_corpus())
def test_corpus_closure_axioms_spot_checks(name, system):
    import random

    rng = random.Random(hash(name) & 0xFFFF)
    n = system.ground.size
    full = system.ground.full_mask
    for _ in range(25):
        a = rng.randint(0, full)
        b = a | rng.randint(0, full)
        ca, cb = system.close(a), system.close(b)
        assert a & ~ca == 0, name  # extensive
        assert ca & ~cb == 0, name  # monotone
        assert system.close(ca) == ca, name  # idempotent


def test_restrict_always_true_is_identity():
    system = Matroid.uniform(2, 4).closure_system()
    restricted = restrict_to_lower_set(system, lambda c: True)
    for a in range(1 << 4):
        assert system.close(a) == restricted.close(a)


def test_restrict_marked_edge_bounded_faces():
    # faces of the square disjoint from the bottom edge {v0, v1}
    system = restrict_to_lower_set(
        vertex_system(square_config()), lambda c: c & 0b0011 == 0
    )
    h = ganter_hasse(system)
    assert set(h.nodes) == {0, 0b0100, 0b1000, 0b1100, 0b1111}


def test_restrict_k_skeleton():
    system = restrict_to_lower_set(
        vertex_system(square_config()), lambda c: c.bit_count() <= 1
    )
    h = ganter_hasse(system)
    assert set(h.nodes) == {0, 1, 2, 4, 8, 0b1111}


def test_poset_statistics():
    h = ganter_hasse(identity_system(3))
    assert poset_statistics(h, lambda m: m.bit_count()) == [1, 3, 3, 1]
    m = Matroid.uniform(2, 3)
    hf = ganter_hasse(m.closure_system())
    assert poset_statistics(hf, m.rank) == [1, 3, 1]
    empty = HasseDiagram(nodes=[], arcs=[])
    assert poset_statistics(empty, lambda m: 0) == []
    with pytest.raises(ValueError, match="rank function must be nonnegative"):
        poset_statistics(h, lambda m: m.bit_count() - 1)


def test_node_cap():
    with pytest.raises(NodeCapExceeded) as exc:
        ganter_hasse(identity_system(4), node_cap=5)
    assert exc.value.partial_count == 5


def test_single_node_diagram():
    full_sys = ClosureSystem(GroundSet(3), lambda a: 0b111)
    h = ganter_hasse(full_sys)
    assert h.nodes == [0b111]
    assert h.arcs == []


def test_exports_are_deterministic():
    h1 = ganter_hasse(vertex_system(square_config()))
    h2 = ganter_hasse(vertex_system(square_config()))
    assert h1.as_dict() == h2.as_dict()
    assert h1.to_dot() == h2.to_dot()
    assert h1.to_dot().count("->") == len(h1.arcs)
    assert '"{0}"' in h1.to_dot()
    assert '"{v0}"' in h1.to_dot(lambda i: f"v{i}")


def test_heights_are_longest_paths():
    h = ganter_hasse(identity_system(4))
    heights = h.heights()
    for i, m in enumerate(h.nodes):
        assert heights[i] == m.bit_count()


# -- randomized operators ----------------------------------------------------

@st.composite
def meet_closed_operator(draw):
    """Closure operator from a random generating family: cl(A) is the
    intersection of all family supersets of A (with S itself implicit)."""
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1
    family = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))

    def close(a: int) -> int:
        c = full
        for g in family:
            if a & ~g == 0:
                c &= g
        return c

    return ClosureSystem(GroundSet(n), close)


@settings(max_examples=60, deadline=None)
@given(meet_closed_operator())
def test_random_systems_match_brute_force(system):
    diagram = ganter_hasse(system)
    nodes, covers = brute_closed_sets(system)
    assert set(diagram.nodes) == nodes
    assert arcs_as_masks(diagram) == covers
    assert len(set(diagram.nodes)) == len(diagram.nodes)
    assert diagram.closure_calls <= system.ground.size * len(diagram.nodes)


@settings(max_examples=30, deadline=None)
@given(meet_closed_operator(), st.integers(min_value=0, max_value=6))
def test_random_cardinality_restriction(system, cutoff):
    restricted = restrict_to_lower_set(system, lambda c: c.bit_count() <= cutoff)
    diagram = ganter_hasse(restricted)
    nodes, covers = brute_closed_sets(restricted)
    assert set(diagram.nodes) == nodes
    assert arcs_as_masks(diagram) == covers


# -- incidence closures --------------------------------------------------------

INCIDENCE_CORPUS = [
    (name, system)
    for name, system in closure_corpus()
    if isinstance(system, IncidenceClosure)
]


def test_incidence_corpus_covers_every_kind():
    kinds = {name.split("-")[0] for name, _ in INCIDENCE_CORPUS}
    assert kinds == {"vertex", "facet", "fan", "span"}
    assert any(system.forbidden for _, system in INCIDENCE_CORPUS)


@pytest.mark.parametrize("name,system", INCIDENCE_CORPUS)
def test_incidence_closure_matches_oracle(name, system):
    for f in range(1 << system.ground.size):
        expected = brute_incidence_close(
            system.rows, system.n_points, system.forbidden, f
        )
        assert system.close(f) == expected, (name, f)


def _oracle_system(system):
    """The same incidence structure, closed by the oracle."""
    return ClosureSystem(
        system.ground,
        lambda f: brute_incidence_close(system.rows, system.n_points, system.forbidden, f),
    )


def _assert_same_enumeration(system):
    fast = ganter_hasse(system)
    slow = ganter_hasse(_oracle_system(system))
    assert fast.nodes == slow.nodes
    assert fast.arcs == slow.arcs
    assert fast.closure_calls == slow.closure_calls


@pytest.mark.parametrize("name,system", INCIDENCE_CORPUS)
def test_incidence_enumeration_matches_oracle_operator(name, system):
    _assert_same_enumeration(system)


@st.composite
def incidence_closure(draw):
    """Random incidence structure: up to 7 generators over up to 6 points,
    with up to 3 forbidden masks."""
    n_gens = draw(st.integers(min_value=1, max_value=7))
    n_points = draw(st.integers(min_value=0, max_value=6))
    full = (1 << n_points) - 1
    rows = draw(st.lists(st.integers(0, full), min_size=n_gens, max_size=n_gens))
    forbidden = draw(st.lists(st.integers(0, full), max_size=3))
    return IncidenceClosure(rows, n_points, forbidden=forbidden)


@st.composite
def dead_generator_closure(draw):
    """Random incidence structure in which some or all generators are dead:
    their rows lie inside a forbidden mask, so each closes to the full set."""
    n_gens = draw(st.integers(min_value=1, max_value=7))
    n_points = draw(st.integers(min_value=0, max_value=6))
    full = (1 << n_points) - 1
    rows = draw(st.lists(st.integers(0, full), min_size=n_gens, max_size=n_gens))
    every = draw(st.booleans())
    dead = range(n_gens) if every else draw(
        st.lists(st.integers(0, n_gens - 1), min_size=1, unique=True)
    )
    forbidden = [rows[j] | draw(st.integers(0, full)) for j in dead]
    forbidden += draw(st.lists(st.integers(0, full), max_size=2))
    return IncidenceClosure(rows, n_points, forbidden=forbidden)


@settings(max_examples=80, deadline=None)
@given(dead_generator_closure())
def test_dead_generators_match_oracle(system):
    dead = [
        j for j, row in enumerate(system.rows) if any(row & ~t == 0 for t in system.forbidden)
    ]
    assert dead
    for j in dead:
        assert system.close(1 << j) == system.ground.full_mask
    _assert_same_enumeration(system)
    _assert_candidates_contract(system)


@settings(max_examples=80, deadline=None)
@given(incidence_closure())
def test_random_incidence_closures_match_oracle(system):
    for f in range(1 << system.ground.size):
        assert system.close(f) == brute_incidence_close(
            system.rows, system.n_points, system.forbidden, f
        )
    _assert_same_enumeration(system)
    nodes, covers = brute_closed_sets(system)
    diagram = ganter_hasse(system)
    assert set(diagram.nodes) == nodes
    assert arcs_as_masks(diagram) == covers


def test_incidence_closure_rejects_bad_rows():
    with pytest.raises(ValueError, match="outside the point set"):
        IncidenceClosure([0b100], 2)
    # no rows, no ground set: a polytope without facets has no facet closure
    with pytest.raises(ValueError, match="at least one element"):
        IncidenceClosure([], 1)


def test_incidence_closure_closes_through_the_base_class():
    # a single closure, whatever the system, is evaluated by one method;
    # only the candidates of a node go through the candidates hook
    assert IncidenceClosure.close is ClosureSystem.close


def _full_set_last(items, full):
    return [it for it in items if it[0] != full] + [it for it in items if it[0] == full]


def _assert_candidates_contract(system):
    # each candidate's mask holds the i outside N that give it: the masks
    # split the outside of N, keys come in the order of their first i, and
    # the full set covers N only as its only key.  An incidence closure,
    # which caches what it learns about its operator, gives the base-class
    # loop item for item with the full set's item moved to the end, asked
    # twice and once more after a full enumeration
    n, full = system.ground.size, system.ground.full_mask
    masks = range(1 << n) if n <= 10 else ganter_hasse(system).nodes
    slow = {nmask: list(ClosureSystem.candidates(system, nmask).items()) for nmask in masks}
    for nmask, items in slow.items():
        union = first = 0
        for c, gens in items:
            assert gens and gens & (union | nmask) == 0, nmask
            assert first < gens & -gens, nmask
            assert all(system.close(nmask | 1 << i) == c for i in indices(gens))
            union |= gens
            first = gens & -gens
        assert union == full & ~nmask, nmask
        if dict(items).get(full) == full ^ nmask:
            assert items == [(full, full ^ nmask)], nmask
    if isinstance(system, IncidenceClosure):
        slow = {nmask: _full_set_last(items, full) for nmask, items in slow.items()}
    for rerun in range(2):
        for nmask in masks:
            assert list(system.candidates(nmask).items()) == slow[nmask], (rerun, nmask)
    ganter_hasse(system)
    for nmask in masks:
        assert list(system.candidates(nmask).items()) == slow[nmask], ("after", nmask)


class _FullSetFirst(ClosureSystem):
    """The base-class loop with the full set's key moved to the front."""

    def candidates(self, nmask):
        out = super().candidates(nmask)
        full = self.ground.full_mask
        return {full: out.pop(full), **out} if full in out else out


def _assert_full_set_place_is_free(system):
    front = ganter_hasse(_FullSetFirst(system.ground, system.close))
    diagram = ganter_hasse(system)
    assert front.nodes == diagram.nodes
    assert front.arcs == diagram.arcs
    assert front.closure_calls == diagram.closure_calls


@pytest.mark.parametrize("name,system", closure_corpus())
def test_cover_counts_match_the_base_class_loop(name, system):
    _assert_candidates_contract(system)


@settings(max_examples=80, deadline=None)
@given(incidence_closure())
def test_random_incidence_cover_counts_match_the_base_class_loop(system):
    _assert_candidates_contract(system)


@pytest.mark.parametrize("name,system", closure_corpus())
def test_full_set_place_changes_no_enumeration(name, system):
    _assert_full_set_place_is_free(system)


@settings(max_examples=80, deadline=None)
@given(incidence_closure())
def test_random_incidence_full_set_place_changes_no_enumeration(system):
    _assert_full_set_place_is_free(system)


@pytest.mark.parametrize("name,system", INCIDENCE_CORPUS)
def test_plain_system_over_an_incidence_closure_matches_brute_force(name, system):
    # the base-class loop through the same operator: its candidates include
    # non-covers, which the mask test must drop
    plain = ClosureSystem(system.ground, system.close)
    diagram = ganter_hasse(plain)
    nodes, covers = brute_closed_sets(plain)
    assert set(diagram.nodes) == nodes
    assert arcs_as_masks(diagram) == covers


def test_candidates_include_non_covers():
    plain = ClosureSystem(GroundSet(3), [0, 3, 3, 3, 7, 7, 7, 7].__getitem__)
    # over the empty set, {0,1} is given by i = 0 and i = 1, {0,1,2} by i = 2 alone
    assert plain.candidates(0) == {0b011: 0b011, 0b111: 0b100}
    assert arcs_as_masks(ganter_hasse(plain)) == {(0, 0b011), (0b011, 0b111)}


def test_cover_counts_give_closure_calls_per_candidate():
    system = vertex_system(square_config())
    diagram = ganter_hasse(system)
    n = system.ground.size
    assert diagram.closure_calls == 1 + sum(n - m.bit_count() for m in diagram.nodes)


def test_each_distinct_cell_is_closed_once_per_system():
    # the flagship: the corank lift of U(1,2)^4 on the hypersimplex of [8]
    sub = ValuatedMatroid(valuation=corank_valuation(u12_power(4))).subdivision
    system = tight_span_closure(sub, _loop_faces(sub.config))
    closed = []
    real = system.close_cell

    def close_cell(cell):
        closed.append(cell)
        return real(cell)

    system.close_cell = close_cell
    diagram = ganter_hasse(system)
    assert (len(diagram.nodes), len(diagram.arcs)) == (409, 1239)
    assert diagram.closure_calls == 49_845
    assert len(closed) == len(set(closed))
    assert len(closed) < diagram.closure_calls // 10
