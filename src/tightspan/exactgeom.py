"""Exact linear algebra, convex hulls and polytope/fan closure operators.

Everything here is exact: coordinates are ``fractions.Fraction``, facet
normals and ray directions are primitive integer vectors.  There is no
floating point anywhere, because all downstream decisions (incidences,
lower-facet tests, subdivision cells) are equality tests.

Elimination is fraction-free, over the integers: ``_rref`` scales each row
to a primitive integer vector on entry, combines rows by integer multiples
and divides every combined row by its content.  It is the only
elimination: ranks, null spaces, independent subsets (its pivot columns)
and the double-description seed with its inverse all read it.  ``project``
is the only Gram-Schmidt step.  This linear algebra makes no
``Fraction``s: the rational answers downstream (offsets, dual vertices)
are integer numerators over one integer denominator until the end.

The hull algorithm is an incremental double description run on the
homogenized point configuration: points are scaled to integers, projected
to a full-dimensional coordinate subspace of their affine hull, homogenized
to cone generators, and inserted one at a time while maintaining the
extreme rays of the polar cone (= the facet normals).  Vertex flags are
read off the incidences: a point is a vertex iff the facets through it
meet in that point alone.  There is one such run, for regular
subdivisions: each generator carries its height and the upward ray
(0, ..., 0, 1) is inserted first, so that a single run gives the facets of
the base (the facets through the ray) and the lower facets (the maximal
cells) and never forms an upper facet (Fukuda and Prodon, Double
description method revisited, 1996, on insertion order).  ``hull`` is the
subdivision of zero heights, whose one lower facet is the floor.

What depends on the configuration alone is computed once per
configuration and kept in a small ``lru_cache`` (``_frame``): the integer
scale, the affine hull's pivots and equations, the sorted integer
projections, the DD seed and, once a run has found it, the hull of the
base.  The upward ray spans the height axis, so the seed's points and
their seed facets do not depend on the heights; a run scales only its
heights, by their own denominators, and adds only the upward ray's own
seed facet.  A scan of many valuations on one configuration (a census
scan under the corank lift) so pays for the configuration once.  That
facet's pairings with the lifted points, ``height_class``, are equal for
heights that differ by an affine function and a positive scale; such
heights give one subdivision, so a scan tells a known one before any DD.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .closure import IncidenceClosure, indices, mask_of, transpose

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


# ---------------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination kernel
# ---------------------------------------------------------------------------

def _content_free(ints) -> IntVector:
    """An integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _primitive(vec) -> IntVector:
    """Scale a vector of ints and ``Fraction``s to a primitive integer vector."""
    mult = lcm(*(x.denominator for x in vec))
    return _content_free([x.numerator * (mult // x.denominator) for x in vec])


def _rref(rows) -> tuple[list[IntVector], list[int]]:
    """Fraction-free reduced row echelon form of rows of ints and
    ``Fraction``s; returns nonzero rows and pivot columns.

    Each returned row is a primitive integer vector with a positive entry
    in its pivot column and zeros in the other pivot columns, so divided by
    that entry it is the row of the rational reduced row echelon form.
    """
    rows = [_primitive(r) for r in rows]
    if not rows:
        return [], []
    nrows = len(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(len(rows[0])):
        pr = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pr is None:
            continue
        prow = rows[pr]
        if prow[col] < 0:
            prow = tuple(-x for x in prow)
        rows[pr] = rows[rank]
        rows[rank] = prow
        pv = prow[col]
        for i in range(nrows):
            f = rows[i][col]
            if f and i != rank:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                rows[i] = _content_free([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def _nullspace(rr: list[IntVector], pivots: list[int], ncols: int) -> list[IntVector]:
    """Primitive integer basis of the right null space of a matrix, given
    as its ``_rref``, in canonical form: one vector per free column f,
    positive at f and zero at the other free columns."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        used = [(r, p) for r, p in zip(rr, pivots) if r[f]]
        mult = lcm(*(r[p] for r, p in used))
        v = [0] * ncols
        v[f] = mult
        for r, p in used:
            v[p] = -r[f] * (mult // r[p])
        basis.append(_content_free(v))
    return basis


def _dot(a, b):
    return sum(map(mul, a, b))


def orthogonalize(vecs) -> list[IntVector]:
    """Exact Gram-Schmidt; drops dependent vectors.  Each returned vector is
    the primitive integer multiple of its Gram-Schmidt vector."""
    out: list[IntVector] = []
    for v in vecs:
        w = project_off(v, out)
        if any(w):
            out.append(w)
    return out


def project(num, den: int, ortho) -> tuple[list[int], int]:
    """x - sum over an orthogonal basis of integer vectors of (x.u / u.u) u,
    for x = num / den, as integer numerators over a positive denominator."""
    for u in ortho:
        c = _dot(num, u)
        if c:
            uu = _dot(u, u)
            num = [uu * a - c * b for a, b in zip(num, u)]
            den *= uu
    return num, den


def project_off(vec, ortho_basis) -> IntVector:
    """Component of ``vec`` orthogonal to the span of an orthogonal basis of
    integer vectors, as a primitive integer vector (zero inside the span)."""
    return _content_free(project(_primitive(vec), 1, ortho_basis)[0])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class PointConfig(namedtuple("PointConfig", "dim points")):
    """Finite configuration of pairwise distinct rational points."""

    __slots__ = ()

    def __new__(cls, dim: int, points: tuple[Vector, ...]):
        if not points:
            raise ValueError("point configuration must be nonempty")
        for p in points:
            if len(p) != dim:
                raise ValueError("point has wrong dimension")
        if len(set(points)) != len(points):
            raise ValueError("points must be pairwise distinct")
        return super().__new__(cls, dim, points)

    @staticmethod
    def from_rows(rows) -> "PointConfig":
        pts = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return PointConfig(dim=len(pts[0]), points=pts)


class Facet(NamedTuple):
    """Supporting halfspace normal.x >= -offset (normal points inward).

    With offset zero on both sides, equations are stored the same way and
    read normal.x + offset = 0.
    """

    normal: IntVector
    offset: Fraction


class HRep(NamedTuple):
    """Exact facet/equation description of a convex hull."""

    facets: tuple[Facet, ...]
    equations: tuple[Facet, ...]
    ambient_dim: int

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.equations)


class IncidenceMatrix(NamedTuple):
    """Facet-point incidences. Row r is a bit mask over points: bit c set
    iff point c satisfies facet r with equality."""

    rows: tuple[int, ...]
    n_points: int

    def restricted_to(self, keep_flags) -> "IncidenceMatrix":
        """Drop columns whose flag is false (e.g. restrict to hull vertices)."""
        kept = [c for c in range(self.n_points) if keep_flags[c]]
        rows = tuple(
            mask_of(new for new, old in enumerate(kept) if r >> old & 1) for r in self.rows
        )
        return IncidenceMatrix(rows=rows, n_points=len(kept))


# ---------------------------------------------------------------------------
# double description core
# ---------------------------------------------------------------------------

def _dd_polar_rays(
    gens: list[IntVector], seed: int, rays: list[tuple[IntVector, int]]
) -> list[tuple[IntVector, int]]:
    """Extreme rays of the polar of a full-dimensional pointed cone.

    ``gens`` must linearly span the space and admit a strictly positive
    functional (both hold for homogenized point configurations).  ``seed``
    masks a basis among ``gens`` and ``rays`` are its cone's facets, one
    per seed generator: (ray, zeroset) with the ray positive on that
    generator and zero on the other seed generators.  The other generators
    are inserted in order.  Returns (ray, zeroset) pairs where the zeroset
    is a bit mask over ``gens`` marking the generators the ray vanishes on;
    these are exactly the facet normals of cone(gens) with their generator
    incidences.

    Each insertion is one pass over the rays, sorting them by their sign
    on the new generator.  Some ray is negative on it: the caller sorts the
    points, so each lies outside the hull of those inserted before it.  A
    positive and a negative ray whose common zeros number at least m - 2
    and lie in no third ray's zeros are adjacent, and give the new ray
    valp rn - valn rp.  The rays stay in the order positive, zero, new.
    """
    m2 = len(gens[0]) - 2
    for t, v in enumerate(gens):
        if seed >> t & 1:
            continue
        bit = 1 << t
        pos, zero, neg = [], [], []
        for r, z in rays:
            val = sum(map(mul, r, v))
            if val > 0:
                pos.append((r, z, val))
            elif val:
                neg.append((r, z, val))
            else:
                zero.append((r, z | bit))
        all_zs = [z for _, z in rays]
        new: dict[IntVector, int] = {}
        for rn, zn, valn in neg:
            for rp, zp, valp in pos:
                common = zp & zn
                if common.bit_count() < m2:
                    continue
                for z3 in all_zs:
                    if common & z3 == common and z3 != zp and z3 != zn:
                        break
                else:
                    w = _content_free([valp * x - valn * y for x, y in zip(rn, rp)])
                    new.setdefault(w, common | bit)
        rays = [(r, z) for r, z, _ in pos] + zero + list(new.items())
    return rays


class _Frame(NamedTuple):
    """What a point configuration fixes before any height is read.

    ``scale`` is the lcm of the coordinates' denominators.  ``pivots`` are
    the pivot coordinates of the affine hull, cut out by ``equations``;
    ``order`` lists the points sorted by their integer projections onto the
    pivot coordinates, ``proj`` those projections in that order.  ``seed``
    holds the positions in that order of the first affinely independent
    points, and ``seed_rays[t]`` is the primitive w with w.(1, q) > 0 for
    the projection q of seed point t and 0 for the other seed points.  With
    the pairings c_t = w_t.(1, q_t), ``seed_lcm`` is L = lcm(c_t) and
    ``seed_weights[t]`` is L / c_t.  ``base`` is empty until the first run
    puts the assembled (HRep, IncidenceMatrix) of conv(config) in it, for
    every later run to return.
    """

    scale: int
    equations: tuple[Facet, ...]
    pivots: tuple[int, ...]
    order: tuple[int, ...]
    proj: tuple[IntVector, ...]
    seed: tuple[int, ...]
    seed_rays: tuple[IntVector, ...]
    seed_lcm: int
    seed_weights: tuple[int, ...]
    base: list


@lru_cache(maxsize=8)
def _frame(config: PointConfig) -> _Frame:
    """The affine frame and the DD seed of a configuration: one ``_rref``
    of the differences to the first point, and one of [Q^T | I] over the
    homogenized sorted projections Q, whose pivot columns in the left block
    are the seed and whose right block's row t, made content-free, is
    seed_rays[t]."""
    d = config.dim
    npts = len(config.points)
    scale = lcm(*(x.denominator for p in config.points for x in p))
    ipts = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in config.points]

    diffs = [[a - b for a, b in zip(p, ipts[0])] for p in ipts[1:]]
    rr, pivots = _rref(diffs)
    equations = tuple(
        Facet(normal=nvec, offset=Fraction(-_dot(nvec, ipts[0]), scale))
        for nvec in _nullspace(rr, pivots, d)
    )
    proj = [tuple(p[c] for c in pivots) for p in ipts]
    order = sorted(range(npts), key=proj.__getitem__)
    proj = [proj[i] for i in order]
    m = len(pivots) + 1
    homogenized = [(1,) + q for q in proj]
    rr, seed = _rref([
        [g[j] for g in homogenized] + [int(j == t) for t in range(m)] for j in range(m)
    ])
    seed_rays = tuple(_content_free(row[npts:]) for row in rr)
    pairings = [_dot(w, homogenized[t]) for w, t in zip(seed_rays, seed)]
    big = lcm(*pairings)
    return _Frame(scale, equations, tuple(pivots), tuple(order), tuple(proj), tuple(seed),
                  seed_rays, big, tuple(big // c for c in pairings), [])


def _lifted_heights(frame: _Frame, heights) -> tuple[int, list[int], IntVector]:
    """The heights' normal form on a configuration's frame: the lcm s of
    their denominators, the integer heights s h, and the upward ray's seed
    facet u = L e_last - sum_t (L h_t / c_t) (w_t, 0) over the seed points'
    integer heights h_t, made content-free.  With the lifted point
    (1, q, s h), u pairs to L (s h - a(q)) up to its content, where a is
    the affine function that agrees with s h on the seed points."""
    hscale = lcm(*(h.denominator for h in heights))
    iheights = [h.numerator * (hscale // h.denominator) for h in heights]
    u = [0] * (len(frame.pivots) + 1) + [frame.seed_lcm]
    for w, weight, pos in zip(frame.seed_rays, frame.seed_weights, frame.seed):
        f = weight * iheights[frame.order[pos]]
        for j, x in enumerate(w):
            u[j] -= f * x
    return hscale, iheights, _content_free(u)


def height_class(config: PointConfig, heights) -> IntVector:
    """The class of ``heights`` (one int or ``Fraction`` per point) under
    adding an affine function and scaling by a positive number, neither of
    which changes the regular subdivision: the pairings of the seed facet u
    of ``_lifted_heights`` with the lifted points, in point order, made
    content-free.  Two height vectors have one class exactly when one is a
    positive multiple of the other plus an affine function; affine heights
    have the zero class.  One short dot product per point."""
    frame = _frame(config)
    _, iheights, (u0, *uq, uh) = _lifted_heights(frame, heights)
    pairings = [0] * len(iheights)
    for i, q in zip(frame.order, frame.proj):
        pairings[i] = u0 + _dot(uq, q) + uh * iheights[i]
    return _content_free(pairings)


def _hull_and_lower_cells(
    config: PointConfig, heights
) -> tuple[HRep, IncidenceMatrix, list[tuple[int, tuple[IntVector, int]]]]:
    """One double description of the lifted configuration plus the upward ray.

    The configuration's ``_frame`` gives its affine hull and its points'
    integer projections to the pivot coordinates, sorted.  The heights (one
    rational per point) are scaled to integers by the lcm s of their own
    denominators, and each point becomes the cone generator (1, its
    projection, its height).  The upward ray (0, ..., 0, 1) goes first, so
    it seeds the DD: the cone is over the lifted points plus the ray, which
    has no upper facets.  A facet through the ray is vertical, the lift of
    a facet of conv(config); every other facet is lower, and its point
    mask is a maximal cell of the regular subdivision.  Returns the facet
    description of conv(config), facets sorted by (normal, offset), its
    incidences, and the lower cells sorted by point mask.  Affine heights
    give one lower facet holding every point, and so does a single point,
    without a DD.

    The seed is the frame's: its seed rays have no height entry, and the
    upward ray's own seed facet is the u of ``_lifted_heights``, which
    ``height_class`` reads too.  Each seed facet is unique up to a positive
    factor, so these are the rays one elimination of the generators would
    give.  A vertical ray is a facet of the projections alone, so the first
    run's base serves every later one.

    Each cell comes as (point mask, (numerators, denominator)), the second
    a slope y with height(p) - p.y constant on the cell: a lower facet
    c0 + c.q + c_h s height(p) >= 0, c_h > 0, over the projections
    q = scale p gives y = -scale c / (s c_h) there and 0 elsewhere.
    """
    d = config.dim
    npts = len(config.points)
    frame = _frame(config)
    if not frame.pivots:
        return (
            HRep(facets=(), equations=frame.equations, ambient_dim=d),
            IncidenceMatrix(rows=(), n_points=npts),
            [(1, ((0,) * d, 1))],
        )

    hscale, iheights, u = _lifted_heights(frame, heights)
    up = (0,) * (len(frame.pivots) + 1) + (1,)
    gens = [up] + [(1,) + q + (iheights[i],) for i, q in zip(frame.order, frame.proj)]

    seed = [1 + pos for pos in frame.seed]  # generator 0 is up
    seed_mask = 1 | mask_of(seed)
    rays = [(u, seed_mask ^ 1)] + [
        (w + (0,), seed_mask ^ 1 << g) for w, g in zip(frame.seed_rays, seed)
    ]

    base = frame.base
    entries = []
    cells = []
    for ray, zset in _dd_polar_rays(gens, seed_mask, rays):
        if base and not ray[-1]:
            continue
        inc = mask_of(frame.order[pos] for pos in indices(zset >> 1))
        if ray[-1]:
            slope = [0] * d
            for val, c in zip(ray[1:-1], frame.pivots):
                slope[c] = -frame.scale * val
            cells.append((inc, (tuple(slope), hscale * ray[-1])))
            continue
        normal = [0] * d
        for val, c in zip(ray[1:], frame.pivots):
            normal[c] = val
        entries.append((tuple(normal), Fraction(ray[0], frame.scale), inc))
    if not base:
        entries.sort(key=lambda e: (e[0], e[1]))
        base.append((
            HRep(
                facets=tuple(Facet(normal=n, offset=o) for n, o, _ in entries),
                equations=frame.equations,
                ambient_dim=d,
            ),
            IncidenceMatrix(rows=tuple(e[2] for e in entries), n_points=npts),
        ))
    return (*base[0], sorted(cells))


def hull(config: PointConfig) -> tuple[HRep, IncidenceMatrix, tuple[bool, ...]]:
    """Exact facet description of conv(config), with incidences and vertex flags.

    Returns equations cutting out the affine hull when the configuration is
    not full-dimensional; a single point yields equations only.  The facets
    are those of the subdivision of zero heights, whose one cell is dropped.
    """
    hrep, incidence, _ = _hull_and_lower_cells(config, (0,) * len(config.points))
    # a point is a vertex iff the facets through it meet in it alone
    faces = polytope_closure_vertex(incidence)
    npts = incidence.n_points
    flags = tuple(faces.close(1 << i) == 1 << i for i in range(npts))
    return hrep, incidence, flags


def cone_hrep(generators, lines) -> list[int]:
    """Facets of cone(generators) + span(lines), each as the mask of the
    generators on it.

    Computed via the hull of {0} union the generators union +-lines: the
    hull facets passing through the origin are exactly the cone facets.
    """
    pts: list[IntVector] = []
    seen = {}
    gen_pos = []
    d = len(generators[0])
    zero = tuple([0] * d)
    pts.append(zero)
    seen[zero] = 0
    for g in generators:
        g = tuple(g)
        if g not in seen:
            seen[g] = len(pts)
            pts.append(g)
        gen_pos.append(seen[g])
    for l in lines:
        for s in (1, -1):
            v = tuple(s * x for x in l)
            if v not in seen:
                seen[v] = len(pts)
                pts.append(v)
    config = PointConfig.from_rows(pts)
    hrep, inc, _ = hull(config)
    return [
        mask_of(j for j, pos in enumerate(gen_pos) if row >> pos & 1)
        for facet, row in zip(hrep.facets, inc.rows)
        if facet.offset == 0
    ]


# ---------------------------------------------------------------------------
# face-lattice closure operators
# ---------------------------------------------------------------------------

def polytope_closure_vertex(inc: IncidenceMatrix) -> IncidenceClosure:
    """Ground set = vertices; close(A) = vertex set of the smallest face
    containing A.  The incidence matrix must be over the vertex set: a
    vertex's row is the set of facets through it."""
    return IncidenceClosure(transpose(inc.rows, inc.n_points), len(inc.rows))


def polytope_closure_facet(inc: IncidenceMatrix) -> IncidenceClosure:
    """Ground set = facets; close(F) = all facets containing the face cut
    out by F.  Yields the face lattice with inverted relations; the empty
    face (empty intersection) closes to the full facet set."""
    return IncidenceClosure(inc.rows, inc.n_points)


# ---------------------------------------------------------------------------
# polyhedral fans
# ---------------------------------------------------------------------------

class Fan(namedtuple("Fan", "rays maximal_cones lineality")):
    """Rays (primitive integer directions), maximal cones as ray-index sets,
    and an explicit basis of the lineality space.  Rays and lineality
    vectors have one length, and no ray lies in the lineality space."""

    __slots__ = ()

    def __new__(cls, rays, maximal_cones, lineality=()):
        named = [(f"ray {i}", r) for i, r in enumerate(rays)]
        named += [(f"lineality vector {i}", v) for i, v in enumerate(lineality)]
        for name, v in named:
            if len(v) != len(named[0][1]):
                raise ValueError(
                    f"{name} has length {len(v)}, {named[0][0]} has length {len(named[0][1])}"
                )
        if len(set(rays)) != len(rays):
            raise ValueError("fan rays must be distinct")
        ortho = orthogonalize(lineality)
        for i, r in enumerate(rays):
            if r != _primitive(r):
                raise ValueError(f"ray {i} is not primitive")
            if not any(project_off(r, ortho)):
                raise ValueError(f"ray {i} lies in the lineality space")
        if any(not 0 <= i < len(rays) for c in maximal_cones for i in c):
            raise ValueError("cone refers to a ray index outside the ray list")
        for c in maximal_cones:
            if len(set(c)) != len(c):
                raise ValueError(f"cone {list(c)} repeats an element")
        masks = [mask_of(c) for c in maximal_cones]
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j and a & b == a:
                    raise ValueError("maximal cones must not contain one another")
        return super().__new__(cls, rays, maximal_cones, lineality)


def fan_closure(fan: Fan) -> IncidenceClosure:
    """Closure operator on the rays of a fan plus one artificial top element.

    close(F) is the ray set of the smallest cone of the fan containing all
    rays of F, or the full ground set (including the artificial element)
    when no cone contains F.  As an incidence structure the points are the
    maximal cones and the (cone, facet) pairs, and a ray's row holds the
    cones and cone facets it lies in.  The cell of F then lists the cones
    containing F together with their facets through F, and closes to the
    intersection over those cones of the smallest face containing F.  The
    artificial element has an empty row, so it joins the closure exactly
    when the cell is empty, i.e. when no cone contains F.
    """
    nr = len(fan.rays)
    point_rays: list[int] = []
    for cone in fan.maximal_cones:
        if not cone:
            continue
        facets = cone_hrep([fan.rays[i] for i in cone], fan.lineality)
        # every listed ray must be extreme: the smallest face of the cone
        # containing it must be the ray alone
        faces = polytope_closure_vertex(IncidenceMatrix(tuple(facets), len(cone)))
        for j, i in enumerate(cone):
            if faces.close(1 << j) != 1 << j:
                raise ValueError(
                    f"ray {i} is not extreme in cone {cone}; "
                    "rays must be positively independent modulo lineality"
                )
        # the cone, then its facets, remapped from local order to ray indices
        for local in [(1 << len(cone)) - 1] + facets:
            point_rays.append(mask_of(cone[j] for j in indices(local)))
    return IncidenceClosure(transpose(point_rays, nr + 1), len(point_rays))
