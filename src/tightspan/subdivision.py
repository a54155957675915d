"""Regular subdivisions, their dual complexes, and extended tight spans.

A subdivision cell is represented by the set of configuration points lying
in it (a bit mask).  For cells of a polyhedral complex this encoding is
faithful: intersection of cells is intersection of masks, and containment
of cells is containment of masks.  Cells of the regular subdivision are the
point sets of the lower facets of the lifted configuration, i.e. the sets
of lifted points minimizing height(p) - p.x for some direction x.
``Subdivision.as_dict`` and ``ExtendedTightSpan.as_dict`` give the results
as JSON-ready dicts; the command line serializes them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .closure import NODE_CAP, IncidenceClosure, ganter_hasse, indices
from .exactgeom import (
    HRep,
    IncidenceMatrix,
    IntVector,
    PointConfig,
    Vector,
    _hull_and_lower_cells,
    orthogonalize,
    project,
    project_off,
)


class Subdivision(NamedTuple):
    """Subdivision of a point configuration into cells given as point masks.

    ``maximal_cells`` and ``boundary_facets`` are point-index masks;
    ``carrier_facet[i]`` is the index (into ``base_hrep.facets``) of the
    facet of the hull containing boundary facet i.  ``cell_slopes[i]`` is a
    slope y of maximal cell i, with height(p) - p.y constant on the cell,
    as integer numerators over a positive integer denominator.
    """

    config: PointConfig
    heights: tuple[int | Fraction, ...]
    maximal_cells: tuple[int, ...]
    boundary_facets: tuple[int, ...]
    carrier_facet: tuple[int, ...]
    base_hrep: HRep
    base_incidence: IncidenceMatrix
    cell_slopes: tuple[tuple[IntVector, int], ...]

    @property
    def n_points(self) -> int:
        return len(self.config.points)

    @property
    def dim(self) -> int:
        return self.base_hrep.dim

    def as_dict(self) -> dict:
        return {
            "maximal_cells": [list(indices(c)) for c in self.maximal_cells],
            "boundary_facets": [list(indices(c)) for c in self.boundary_facets],
            "carrier_facets": list(self.carrier_facet),
        }


def _boundary(cells, base_inc: IncidenceMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The boundary facets of a subdivision and their carrier facets:
    restrict the cells to every hull facet and keep the inclusion-maximal
    pieces."""
    boundary: list[int] = []
    carriers: list[int] = []
    for fi, frow in enumerate(base_inc.rows):
        cands = sorted({c & frow for c in cells if c & frow})
        for a in cands:
            if not any(b != a and a & b == a for b in cands):
                boundary.append(a)
                carriers.append(fi)
    return tuple(boundary), tuple(carriers)


def regular_subdivision(config: PointConfig, heights) -> Subdivision:
    """Subdivision induced by lifting each point to its height, one int or
    ``Fraction`` per point.

    Maximal cells are the point sets of the lower facets of the lifted
    configuration (the minimizer sets of height(p) - p.x).  One double
    description of the lifted points plus the upward ray gives them and the
    hull of the base together, and a slope of every lower facet; affine
    heights give the trivial subdivision.
    """
    heights = tuple(heights)
    if len(heights) != len(config.points):
        raise ValueError("height function length must match point count")
    base_hrep, base_inc, lower = _hull_and_lower_cells(config, heights)
    cells = tuple(c for c, _ in lower)
    boundary, carriers = _boundary(cells, base_inc)
    return Subdivision(
        config=config,
        heights=heights,
        maximal_cells=cells,
        boundary_facets=boundary,
        carrier_facet=carriers,
        base_hrep=base_hrep,
        base_incidence=base_inc,
        cell_slopes=tuple(y for _, y in lower),
    )


def tight_span_closure(sub: Subdivision, gamma=()) -> IncidenceClosure:
    """Closure system of the subdivision's dual, restricted by gamma.

    Ground elements are the maximal cells and the maximal boundary facets,
    each given by its point mask.  For nonempty F the closure collects every
    generator containing the cell cut out by F; closed sets whose cell lies
    inside a gamma member (a point mask in some facet of the hull) are
    collapsed to the full ground set.
    """
    gamma = tuple(gamma)
    for m in gamma:
        if not any(m & ~row == 0 for row in sub.base_incidence.rows):
            raise ValueError(
                f"gamma member {list(indices(m))} is not contained "
                "in any facet of the hull"
            )
    gens = sub.maximal_cells + sub.boundary_facets
    return IncidenceClosure(gens, sub.n_points, forbidden=gamma)


class SpanCell(NamedTuple):
    """Dual cell of a closed set: convex hull of the listed dual vertices
    plus the cone of the listed dual rays (plus lineality)."""

    vertices: tuple[int, ...]
    rays: tuple[int, ...]
    dim: int


class ExtendedTightSpan(NamedTuple):
    """Coordinatized dual complex of the kept cells of a regular subdivision."""

    dual_vertices: tuple[Vector, ...]
    dual_rays: tuple[IntVector, ...]
    lineality: tuple[IntVector, ...]
    cells: tuple[SpanCell, ...]

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    def f_vector(self, quotient: bool = True) -> tuple[int, ...]:
        return self._count_dims(self.cells, quotient)

    def bounded_f_vector(self, quotient: bool = True) -> tuple[int, ...]:
        return self._count_dims([c for c in self.cells if not c.rays], quotient)

    def _count_dims(self, cells, quotient: bool) -> tuple[int, ...]:
        if not cells:
            return ()
        shift = 0 if quotient else self.lineality_dim
        counts = [0] * (max(c.dim for c in cells) + shift + 1)
        for c in cells:
            counts[c.dim + shift] += 1
        return tuple(counts)

    def as_dict(self, quotient: bool = True) -> dict:
        return {
            "vertices": [[str(x) for x in v] for v in self.dual_vertices],
            "rays": [list(r) for r in self.dual_rays],
            "lineality": [list(l) for l in self.lineality],
            "cells": [
                {"vertices": list(c.vertices), "rays": list(c.rays)}
                for c in self.cells
            ],
            "f_vector": list(self.f_vector(quotient)),
            "bounded_f_vector": list(self.bounded_f_vector(quotient)),
            "lineality_dim": self.lineality_dim,
        }


@lru_cache(maxsize=8)
def _dual_frame(
    lineality: tuple[IntVector, ...], normals: tuple[IntVector, ...]
) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
    """What the dual coordinates read off the hull alone, from the normals
    of its equations (the lineality basis) and of its facets: the
    lineality's exact Gram-Schmidt basis, and each facet's outward normal
    projected orthogonally to the lineality, as a primitive integer
    vector."""
    lin_ortho = tuple(orthogonalize(lineality))
    return lin_ortho, tuple(project_off([-x for x in n], lin_ortho) for n in normals)


def coordinatize(sub: Subdivision, gamma=(), node_cap: int = NODE_CAP) -> ExtendedTightSpan:
    """Enumerate the kept closed sets and attach dual coordinates.

    The dual vertex of a maximal cell is the slope of its lower facet
    (``Subdivision.cell_slopes``: height(p) - p.x is constant on the cell)
    projected orthogonally off the lineality space, the one such x
    orthogonal to it.  The dual ray of a boundary facet is the outward
    normal of its carrier facet, projected orthogonally to the lineality
    and scaled to a primitive integer vector; both projections read the
    hull's ``_dual_frame``, computed once per hull.  Nothing is eliminated
    here.
    """
    system = tight_span_closure(sub, gamma)
    diagram = ganter_hasse(system, node_cap=node_cap)

    # the lineality space is spanned by the normals of the affine hull's equations
    lineality = tuple(e.normal for e in sub.base_hrep.equations)
    lin_ortho, outward = _dual_frame(lineality, tuple(f.normal for f in sub.base_hrep.facets))

    dual_vertices = []
    for num, den in sub.cell_slopes:
        num, den = project(num, den, lin_ortho)
        dual_vertices.append(tuple(Fraction(a, den) for a in num))

    dual_rays = [outward[carrier] for carrier in sub.carrier_facet]

    n_max = len(sub.maximal_cells)
    vertex_part = (1 << n_max) - 1
    full = system.ground.full_mask

    # the kept closed sets form a polyhedral complex, whose face posets are
    # graded: a cell's dimension is its height above the empty set, minus one
    levels = diagram.heights()
    cells = []
    trivial_point = sub.dim == 0
    for node, level in zip(diagram.nodes, levels):
        if node == 0:
            continue
        if node == full and not trivial_point:
            continue
        vs = indices(node & vertex_part)
        rs = indices(node >> n_max)
        cells.append(SpanCell(vertices=vs, rays=rs, dim=level - 1))

    return ExtendedTightSpan(
        dual_vertices=tuple(dual_vertices),
        dual_rays=tuple(dual_rays),
        lineality=lineality,
        cells=tuple(cells),
    )
