"""Valuated matroids and tropical linear spaces in their coarsest structure.

A valuation on a matroid induces a regular subdivision of the matroid
polytope; the pair is a valuated matroid when every cell of that
subdivision is again a matroid polytope (decided on the valuation by
``matroid.non_matroidal_witness``).  The tropical linear space is the dual
complex restricted to the cells whose matroids are loop-free, modulo the
all-ones direction; equivalently the extended tight span with respect to
the boundary faces lying in the coordinate hyperplanes x_i = 0.

Both types are named tuples built once, from fewer arguments than they
hold: ``ValuatedMatroid(valuation)`` gates the valuation's subdivision,
and ``TropicalLinearSpace(source, span)`` forms the report, which
``as_dict`` joins to the span's document for the ``tls`` and ``bergman``
commands.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import lru_cache
from math import comb

from .closure import NODE_CAP, indices, mask_of
from .exactgeom import _rref, orthogonalize, project_off
from .matroid import Matroid, MatroidError, Valuation, non_matroidal_witness
from .subdivision import ExtendedTightSpan, coordinatize, regular_subdivision


class SpeyerBoundWarning(UserWarning):
    """A computed bounded f-vector exceeds the conjectured upper bound."""


class NonMatroidalValuation(MatroidError):
    """The induced subdivision has a cell with a forbidden edge direction."""

    def __init__(self, cell_points, edge):
        super().__init__(
            f"valuation induces a non-matroidal cell {sorted(cell_points)} "
            f"with edge direction {edge}"
        )
        self.cell_points = tuple(cell_points)
        self.edge = tuple(edge)


class ValuatedMatroid(namedtuple("ValuatedMatroid", "valuation subdivision")):
    """A valuation whose subdivision is matroidal, on its owner matroid."""

    __slots__ = ()

    def __new__(cls, valuation: Valuation):
        sub = regular_subdivision(valuation.owner.polytope(), valuation.heights())
        witness = non_matroidal_witness(sub)
        if witness is not None:
            cell, edge = witness
            raise NonMatroidalValuation(indices(cell), edge)
        return super().__new__(cls, valuation, sub)

    @property
    def matroid(self) -> Matroid:
        return self.valuation.owner


class TropicalLinearSpace(namedtuple("TropicalLinearSpace", "source span report")):
    """Dual complex of the loop-free cells, modulo the all-ones direction.

    Coordinates are sum-zero representatives of R^n / R.1; lineality beyond
    the all-ones direction (present exactly for disconnected matroids) is
    reported as a basis, not quotiented away.  ``report`` is built once
    from the source and the span: (n, r), both f-vectors, ``lineality_dim``
    and ``dim`` (the top cell's) inside R^n / R.1, and the conjectured
    bound per bounded dimension; ``within_bound`` compares the bounded
    f-vector, padded with zeros, entry by entry with it.
    """

    __slots__ = ()

    def __new__(cls, source: ValuatedMatroid, span: ExtendedTightSpan):
        n, r = source.matroid.n, source.matroid.r
        f_vector, bounded = span.f_vector(), span.bounded_f_vector()
        bounds = speyer_bounds(n, r)
        padded = bounded + (0,) * (len(bounds) - len(bounded))
        lineality_dim = span.lineality_dim - 1
        report = {
            "n": n,
            "r": r,
            "f_vector": list(f_vector),
            "bounded_f_vector": list(bounded),
            "speyer_bounds": list(bounds),
            "within_bound": [a <= b for a, b in zip(padded, bounds)],
            "lineality_dim": lineality_dim,
            "dim": len(f_vector) - 1 + lineality_dim,
        }
        return super().__new__(cls, source, span, report)

    @property
    def lineality_basis(self) -> tuple[tuple[int, ...], ...]:
        """Sum-zero primitive representatives of the extra lineality: the
        projections off the all-ones direction independent of those before."""
        ortho = orthogonalize([(1,) * self.report["n"]])
        out = [project_off(vec, ortho) for vec in self.span.lineality]
        _, pivots = _rref(list(zip(*out)))
        return tuple(out[p] for p in pivots)

    def as_dict(self) -> dict:
        """The span's document with the report's keys and the lineality
        basis in place of the span's own lineality and its dimension."""
        doc = self.span.as_dict()
        doc.update(self.report, lineality=[list(v) for v in self.lineality_basis])
        return doc


@lru_cache(maxsize=8)
def _loop_faces(config) -> tuple[int, ...]:
    """Point masks of the coordinate-zero faces: for each ground element i,
    the points with i-th coordinate zero (the maximal boundary face whose
    cells all have i as a loop).  Empty faces are dropped."""
    faces = [
        mask_of(j for j, p in enumerate(config.points) if p[i] == 0)
        for i in range(config.dim)
    ]
    return tuple(f for f in faces if f)


def tropical_linear_space(
    vm: ValuatedMatroid, node_cap: int = NODE_CAP
) -> TropicalLinearSpace:
    """Build the tropical linear space of a valuated matroid.

    The subdivision of the matroid polytope is dualized and restricted to
    the closed sets whose cells avoid all coordinate-zero boundary faces,
    i.e. whose cell matroids are loop-free.
    """
    m = vm.matroid
    if m.loops():
        raise MatroidError(
            f"matroid has loops {list(indices(m.loops()))}; "
            "its tropical linear space is empty"
        )
    sub = vm.subdivision
    gamma = _loop_faces(sub.config)
    span = coordinatize(sub, gamma, node_cap=node_cap)
    tls = TropicalLinearSpace(source=vm, span=span)
    _check_speyer(tls.report)
    return tls


def bergman_source(m: Matroid) -> ValuatedMatroid:
    """The zero valuation on a loop-free matroid, gated."""
    if m.loops():
        raise MatroidError("matroid with loops has no Bergman fan")
    return ValuatedMatroid(valuation=Valuation.zero(m))


def bergman_fan(m: Matroid, node_cap: int = NODE_CAP) -> TropicalLinearSpace:
    """Tropical linear space of the zero valuation: the loop-free part of
    the normal fan of the matroid polytope, in its coarsest structure."""
    return tropical_linear_space(bergman_source(m), node_cap=node_cap)


def speyer_bound(n: int, r: int, i: int) -> int:
    """Conjectured maximum for the number of (i-1)-dimensional bounded
    faces: C(n-2i, r-i) * C(n-i-1, i-1), zero when arguments degenerate."""
    if not 1 <= i <= r <= n:
        raise ValueError("need 1 <= i <= r <= n")

    def c(a: int, b: int) -> int:
        if a < 0 or b < 0 or b > a:
            return 0
        return comb(a, b)

    return c(n - 2 * i, r - i) * c(n - i - 1, i - 1)


def speyer_bounds(n: int, r: int) -> tuple[int, ...]:
    """Bound per bounded-face dimension 0..r-1 (dimension d uses i = d+1)."""
    return tuple(speyer_bound(n, r, i) for i in range(1, r + 1))


def _check_speyer(rep: dict) -> None:
    """Warn loudly when the bounded f-vector of a space's ``report``
    exceeds the conjectured bound.

    Skipped when the complex has extra lineality (where cells are never
    geometrically bounded) and for the degenerate single-element ground set.
    """
    if rep["lineality_dim"] > 0 or rep["n"] < 2:
        return
    bounded, bounds = rep["bounded_f_vector"], rep["speyer_bounds"]
    if len(bounded) > len(bounds) or not all(rep["within_bound"]):
        warnings.warn(
            f"bounded f-vector {tuple(bounded)} exceeds the conjectured "
            f"bound {tuple(bounds)} for (n, r) = ({rep['n']}, {rep['r']})",
            SpeyerBoundWarning,
            stacklevel=2,
        )
