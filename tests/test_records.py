"""The record types: checks on every construction path, immutability, and
value equality where a record is a cache key.

The records are named tuples.  A validated record runs its checks in
``__new__``, which a keyword call and a positional call both reach.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import quartet_vm, square_config
from tightspan import (
    Fan,
    GroundSet,
    Matroid,
    PointConfig,
    ValuatedMatroid,
    Valuation,
    ganter_hasse,
    tropical_linear_space,
)
from tightspan import exactgeom
from oracle import normal_fan

U24 = Matroid.uniform(2, 4)


def _octahedron_values(*raised):
    """Zero on every basis of U(2,4) but one on the ``raised`` pairs."""
    values = {b: Fraction(0) for b in U24.bases}
    for a, b in raised:
        values[1 << a | 1 << b] = Fraction(1)
    return values


# (record, good arguments, bad arguments, the fault the error names)
VALIDATED = [
    (GroundSet, {"size": 2}, {"size": 0}, "at least one element"),
    (
        PointConfig,
        {"dim": 1, "points": ((Fraction(0),), (Fraction(1),))},
        {"dim": 1, "points": ((Fraction(0),), (Fraction(0),))},
        "pairwise distinct",
    ),
    (
        PointConfig,
        {"dim": 1, "points": ((Fraction(0),),)},
        {"dim": 2, "points": ((Fraction(0),),)},
        "wrong dimension",
    ),
    (
        Fan,
        {"rays": ((1, 0), (0, 1)), "maximal_cones": ((0, 1),), "lineality": ()},
        {"rays": ((2, 0), (0, 1)), "maximal_cones": ((0, 1),), "lineality": ()},
        "not primitive",
    ),
    (
        Fan,
        {"rays": ((1, 0), (0, 1)), "maximal_cones": ((0,), (1,)), "lineality": ()},
        {"rays": ((1, 0), (0, 1)), "maximal_cones": ((0,), (0, 1)), "lineality": ()},
        "contain one another",
    ),
    (
        Matroid,
        {"n": 2, "r": 1, "bases": frozenset({1, 2})},
        {"n": 2, "r": 1, "bases": frozenset({1, 3})},
        "same cardinality",
    ),
    (
        Matroid,
        {"n": 2, "r": 1, "bases": frozenset({1})},
        {"n": 2, "r": 1, "bases": frozenset({4})},
        "outside the ground set",
    ),
    (
        Valuation,
        {"owner": U24, "values": _octahedron_values()},
        {"owner": U24, "values": {3: Fraction(0)}},
        "every basis",
    ),
    (
        ValuatedMatroid,
        {"valuation": Valuation(U24, _octahedron_values((2, 3)))},
        {"valuation": Valuation(U24, _octahedron_values((0, 2), (0, 3)))},
        "non-matroidal cell",
    ),
]


@pytest.mark.parametrize(
    "record, good, bad, fault", VALIDATED, ids=lambda x: getattr(x, "__name__", None)
)
@pytest.mark.parametrize("call", ["keyword", "position"])
def test_a_validated_record_checks_its_arguments_however_it_is_called(
    record, good, bad, fault, call
):
    def build(arguments):
        if call == "keyword":
            return record(**arguments)
        return record(*arguments.values())

    built = build(good)
    assert all(getattr(built, k) is v for k, v in good.items())
    with pytest.raises(ValueError, match=fault):
        build(bad)


def test_a_fan_has_no_lineality_unless_given():
    rays, cones = ((1, 0), (0, 1)), ((0, 1),)
    assert Fan(rays, cones).lineality == () == Fan(rays=rays, maximal_cones=cones).lineality


def every_record():
    """One instance of each record type, with its field names."""
    vm = quartet_vm()
    tls = tropical_linear_space(vm)
    sub = vm.subdivision
    diagram = ganter_hasse(exactgeom.polytope_closure_vertex(sub.base_incidence))
    records = [
        GroundSet(3),
        diagram,
        sub.config,
        sub.base_hrep.facets[0],
        sub.base_hrep,
        sub.base_incidence,
        normal_fan(square_config()),
        vm.matroid,
        vm.valuation,
        sub,
        tls.span.cells[0],
        tls.span,
        vm,
        tls,
    ]
    return [(r, r._fields) for r in records]


def test_every_record_type_is_covered():
    names = {type(r).__name__ for r, _ in every_record()}
    assert names == {
        "GroundSet", "HasseDiagram", "PointConfig", "Facet", "HRep", "IncidenceMatrix",
        "Fan", "Matroid", "Valuation", "Subdivision", "SpanCell", "ExtendedTightSpan",
        "ValuatedMatroid", "TropicalLinearSpace",
    }


def test_a_span_cell_lists_its_vertices_rays_and_dimension():
    # its closed set is not kept: the vertices and rays name its generators
    cell = tropical_linear_space(quartet_vm()).span.cells[0]
    assert cell._fields == ("vertices", "rays", "dim")


@pytest.mark.parametrize(
    "record, fields", [pytest.param(r, f, id=type(r).__name__) for r, f in every_record()]
)
def test_no_field_of_a_record_can_be_assigned(record, fields):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        assert getattr(record, name) is before


def test_configurations_and_matroids_are_equal_and_hash_alike_by_value():
    # both are lru_cache keys: a configuration or a matroid built again
    # must find the facts kept for the first
    rows = [[0, 0], [1, 0], [0, 1], [1, 1]]
    a, b = PointConfig.from_rows(rows), PointConfig.from_rows(rows)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PointConfig.from_rows(rows[:3])
    assert exactgeom._frame(a) is exactgeom._frame(b)

    bases = [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]
    m, n = Matroid.from_bases(4, bases), Matroid.from_bases(4, bases[::-1])
    assert m is not n and m == n and hash(m) == hash(n)
    assert m != U24 and m.polytope() is n.polytope()
