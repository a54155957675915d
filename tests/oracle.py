"""Independent brute-force reference implementations, and the helpers that
only the tests use.

Nothing here shares logic with the production modules beyond the subset
encoding (ints as bit vectors) and fractions.  The hull oracle enumerates
candidate hyperplanes through point subsets instead of running the
incremental construction, and decides vertex flags by hull membership
instead of reading incidences; its elimination is a plain ``Fraction``
Gauss-Jordan loop, the reference for the integer kernel of ``exactgeom``.
The membership oracle evaluates the argmin definition directly.  The
reference regular subdivision hulls the base and the lifted configuration
separately and keeps the lifted facets that face down, where
``regular_subdivision`` reads both off one double description with the
upward ray; both hulls come from ``exactgeom.hull``, which runs that same
lifted double description with zero heights (``brute_hull`` checks it),
and the boundary assembly is the production one, so it checks the split
of that one description into base facets and cells.  Span cell
dimensions are recomputed as ranks of the dual generators, where
``coordinatize`` reads them off the lattice grading, and dual vertices
are solved cell by cell from their defining linear systems, where
``coordinatize`` projects the lower-facet slopes of the double
description off the lineality.  The edges of a cell, with which the gate
tests check the gate's witness, are found geometrically, where the gate
reads the valuation; they take the cell's facets from ``exactgeom.hull``
(itself checked against ``brute_hull``) because cells are too large for
the hyperplane enumeration.  The placing triangulation
behind ``relative_volume`` takes facets and vertex flags from
``exactgeom.hull`` too.  Matroid components, the reference for the
lineality of tropical linear spaces, are read off the separators.  Basis
exchange is checked pair by pair on sets, where ``Matroid`` tests single
swaps on masks; on the points of every maximal cell it gives the gate
tests their verdict (Gelfand-Goresky-MacPherson-Serganova).  The
characteristic polynomial's value at zero, against which the tests check
whole f-vectors, is summed over all subsets with a rank of its own.
The transpose of an incidence matrix is formed one set bit at a time,
where ``closure.transpose`` reads columns off binary strings, and the
boundary facets of a subdivision are found by testing every pair of
pieces, where ``subdivision._boundary`` tests each piece against the
maximal pieces kept so far.  Two height vectors are in one class when
solving a linear system shows their difference, up to a positive scale,
affine, where ``exactgeom.height_class`` pairs them with the DD seed's
upward facet.

The helpers that no production module calls live here too, each naming
the production code it calls: lower-set restriction, normal fans,
subdivisions given by their cells (no heights), a point's minimizer cell
and its membership in a computed tropical linear space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from types import SimpleNamespace

MAX_GROUND = 15
MAX_POINTS = 12
MAX_ORACLE_DIM = 5


# ---------------------------------------------------------------------------
# closure systems
# ---------------------------------------------------------------------------

def brute_closed_sets(system) -> tuple[set[int], set[tuple[int, int]]]:
    """Close all 2^|S| subsets; return distinct closed sets and covering pairs
    (as pairs of set encodings)."""
    n = system.ground.size
    if n > MAX_GROUND:
        raise ValueError(f"brute force limited to ground sets of size {MAX_GROUND}")
    closed = {system.close(a) for a in range(1 << n)}
    covers = set()
    for a in closed:
        for b in closed:
            if a != b and a & b == a:
                if not any(
                    c != a and c != b and a & c == a and c & b == c for c in closed
                ):
                    covers.add((a, b))
    return closed, covers


def brute_incidence_close(rows, n_points, forbidden, f) -> int:
    """Closure of the generator set ``f`` in an incidence structure, read off
    the definition with Python sets: the points common to all generators of
    f, then every generator holding all of them; the full generator set if
    those points all lie in one forbidden mask; nothing for f empty."""
    points_of = [{p for p in range(n_points) if r >> p & 1} for r in rows]
    chosen = [j for j in range(len(rows)) if f >> j & 1]
    if not chosen:
        return 0
    common = set(range(n_points))
    for j in chosen:
        common = common & points_of[j]
    for t in forbidden:
        if common <= {p for p in range(n_points) if t >> p & 1}:
            return (1 << len(rows)) - 1
    return sum(1 << j for j, pts in enumerate(points_of) if common <= pts)


def brute_transpose(rows, width: int) -> tuple[int, ...]:
    """Transpose of a 0/1 matrix of row masks, one set bit at a time, where
    ``closure.transpose`` reads the columns off binary strings; a row wider
    than ``width`` raises IndexError."""
    from tightspan.closure import indices  # the subset encoding only

    cols = [0] * width
    for j, r in enumerate(rows):
        for k in indices(r):
            cols[k] |= 1 << j
    return tuple(cols)


def restrict_to_lower_set(system, keep):
    """Restrict a closure system to a downward-closed family of closed sets.

    The new operator maps A to cl(A) whenever keep(cl(A)) holds and to the
    full ground set otherwise; ``keep`` must be downward closed on closed
    sets, which is not verified.  The meaning of an incidence closure's
    ``forbidden`` masks, stated on any ``closure.ClosureSystem``.
    """
    from tightspan.closure import ClosureSystem  # type construction only, no logic reuse

    full = system.ground.full_mask

    def close(a: int) -> int:
        c = system.close(a)
        return c if keep(c) else full

    return ClosureSystem(system.ground, close)


# ---------------------------------------------------------------------------
# convex hulls by hyperplane enumeration
# ---------------------------------------------------------------------------

def _orrref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _orank(rows):
    return len(_orrref([[Fraction(x) for x in r] for r in rows])[0])


def _onullspace(rows, ncols):
    """Basis of the right null space of a rational matrix, one vector per
    free column of its reduced row echelon form."""
    rr, pivots = _orrref([[Fraction(x) for x in r] for r in rows])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rr[i][f]
        basis.append(v)
    return basis


def _oprimitive(vec):
    fr = [Fraction(x) for x in vec]
    mult = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * mult) for f in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def brute_hull(config):
    """All supporting hyperplanes spanned by affinely independent point subsets.

    Returns (facets, equations) where each entry is (normal, offset) with the
    convention normal.x + offset >= 0 on the configuration (inward normal),
    facets listed as (normal, offset, incidence mask).
    """
    pts = config.points
    npts = len(pts)
    d = config.dim
    if npts > MAX_POINTS or d > MAX_ORACLE_DIM:
        raise ValueError("brute hull limited to small instances")

    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    k = _orank(diffs)

    # affine hull equations: nullspace of the difference matrix
    equations = []
    for v in _onullspace(diffs, d):
        nvec = _oprimitive(v)
        off = -sum(a * b for a, b in zip(nvec, pts[0]))
        equations.append((nvec, off))

    if k == 0:
        return [], equations

    facets = {}
    for subset in combinations(range(npts), k):
        base = pts[subset[0]]
        rows = [[pts[i][c] - base[c] for c in range(d)] for i in subset[1:]]
        if _orank(rows) != k - 1:
            continue
        # normal: orthogonal to the subset differences, inside the affine hull
        # solve for n with n . (p_i - p_0) = 0 for subset and n . eq-normal = 0
        normals = _onullspace(rows + [list(n) for n, _ in equations], d)
        if len(normals) != 1:
            continue
        nvec = _oprimitive(normals[0])
        off = -sum(a * b for a, b in zip(nvec, base))
        vals = [sum(a * b for a, b in zip(nvec, p)) + off for p in pts]
        if all(x >= 0 for x in vals):
            pass
        elif all(x <= 0 for x in vals):
            nvec = tuple(-x for x in nvec)
            off = -off
            vals = [-x for x in vals]
        else:
            continue
        onset = sum(1 << i for i, x in enumerate(vals) if x == 0)
        on_pts = [pts[i] for i in range(npts) if onset >> i & 1]
        span = [[a - b for a, b in zip(p, on_pts[0])] for p in on_pts[1:]]
        if _orank(span) != k - 1:
            continue
        facets[onset] = (nvec, off, onset)
    return sorted(facets.values()), equations


def brute_vertex_flags(config) -> tuple[bool, ...]:
    """Point i is a vertex iff it lies outside the hull of the other points,
    decided against the facets and equations ``brute_hull`` gives them."""
    from tightspan.exactgeom import PointConfig  # type construction only, no logic reuse

    pts = config.points
    flags = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not others:
            flags.append(True)
            continue
        facets, equations = brute_hull(PointConfig(dim=config.dim, points=others))
        inside = all(
            sum(a * b for a, b in zip(n, p)) + off >= 0 for n, off, _ in facets
        ) and all(sum(a * b for a, b in zip(n, p)) + off == 0 for n, off in equations)
        flags.append(not inside)
    return tuple(flags)


def brute_lower_cells(config, heights):
    """Maximal cells of the regular subdivision, via the hyperplane oracle on
    the lifted configuration.  Returns a set of point-index masks."""
    lifted_rows = [tuple(p) + (h,) for p, h in zip(config.points, heights)]
    from tightspan.exactgeom import PointConfig  # type construction only, no logic reuse

    lifted = PointConfig.from_rows(lifted_rows)
    base_diffs = [
        [a - b for a, b in zip(p, config.points[0])] for p in config.points[1:]
    ]
    k = _orank(base_diffs)
    lifted_diffs = [
        [a - b for a, b in zip(p, lifted_rows[0])] for p in lifted_rows[1:]
    ]
    if _orank(lifted_diffs) == k:
        return {(1 << len(config.points)) - 1}
    facets, _ = brute_hull(lifted)
    cells = set()
    for nvec, off, onset in facets:
        if nvec[-1] > 0:
            cells.add(onset)
    return cells


def same_height_class(points, heights, other) -> bool:
    """Whether ``other`` - mu ``heights`` is affine on the points for some
    mu > 0, the reference for ``exactgeom.height_class``: one elimination
    of the system a0 + a.p_i + mu heights_i = other_i in the unknowns
    (a0, a, mu).  mu's column comes last, so it is a pivot column exactly
    when ``heights`` is not affine, and then its row fixes mu; otherwise
    every mu solves a solvable system."""
    rows = [[Fraction(1), *map(Fraction, p), Fraction(h), Fraction(g)]
            for p, h, g in zip(points, heights, other)]
    rr, pivots = _orrref(rows)
    mu = len(rows[0]) - 2
    if mu + 1 in pivots:
        return False
    return mu not in pivots or rr[pivots.index(mu)][-1] > 0


def _cells_only(config, cells, base_hrep, base_inc) -> SimpleNamespace:
    """A subdivision by its cells alone, with no heights: the fields of a
    ``Subdivision`` that ``subdivision.tight_span_closure`` reads, boundary
    facets and carriers from ``subdivision._boundary``."""
    from tightspan.subdivision import _boundary

    boundary, carriers = _boundary(cells, base_inc)
    return SimpleNamespace(
        maximal_cells=tuple(cells), boundary_facets=boundary, carrier_facet=carriers,
        base_hrep=base_hrep, base_incidence=base_inc, n_points=len(config.points),
    )


def brute_boundary(cells, base_inc) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Boundary facets and carrier facets of a subdivision by a pairwise
    maximality test: the pieces of the cells on each hull facet, in
    increasing order, that no other piece contains, where
    ``subdivision._boundary`` tests each piece only against the maximal
    ones kept so far."""
    boundary, carriers = [], []
    for fi, frow in enumerate(base_inc.rows):
        cands = sorted({c & frow for c in cells if c & frow})
        for a in cands:
            if not any(b != a and a & b == a for b in cands):
                boundary.append(a)
                carriers.append(fi)
    return tuple(boundary), tuple(carriers)


def two_hull_subdivision(config, heights) -> SimpleNamespace:
    """Regular subdivision by two hulls: conv(config), then the lifted
    configuration, whose facets with positive last normal coordinate are
    the maximal cells (one cell of every point when the lift is no higher
    dimensional than the base).  Both hulls come from ``exactgeom.hull``."""
    from tightspan.exactgeom import PointConfig, hull

    base_hrep, base_inc, _ = hull(config)
    lifted = PointConfig(
        dim=config.dim + 1,
        points=tuple(p + (h,) for p, h in zip(config.points, heights)),
    )
    lifted_hrep, lifted_inc, _ = hull(lifted)
    if lifted_hrep.dim == base_hrep.dim:
        cells = [(1 << len(config.points)) - 1]
    else:
        cells = sorted(
            row
            for facet, row in zip(lifted_hrep.facets, lifted_inc.rows)
            if facet.normal[-1] > 0
        )
    return _cells_only(config, cells, base_hrep, base_inc)


def subdivision_from_cells(config, maximal_cells) -> SimpleNamespace:
    """Subdivision given combinatorially by its maximal cells (collections
    of point indices), which need not be regular; the hull comes from
    ``exactgeom.hull``."""
    from tightspan.exactgeom import hull

    base_hrep, base_inc, _ = hull(config)
    npts = len(config.points)
    if any(not c or any(not 0 <= i < npts for i in c) for c in maximal_cells):
        raise ValueError("cell indices outside the configuration")
    cells = sorted({sum(1 << i for i in set(c)) for c in maximal_cells})
    if any(a != b and a & b == a for a in cells for b in cells):
        raise ValueError("maximal cells must not contain one another")
    return _cells_only(config, cells, base_hrep, base_inc)


def solved_dual_vertices(sub):
    """Dual vertex of every maximal cell of a regular subdivision, solved
    from its defining system: height(p) - p.x = height(q) - q.x over the
    cell's points, and x orthogonal to the null space of all the points'
    differences (the lineality).  Raises ValueError unless the solution is
    unique."""
    pts, heights, d = sub.config.points, sub.heights, sub.config.dim
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    lineality = [v + [Fraction(0)] for v in _onullspace(diffs, d)]
    out = []
    for cell in sub.maximal_cells:
        idx = [i for i in range(len(pts)) if cell >> i & 1]
        b = idx[0]
        rows = [
            [Fraction(x - y) for x, y in zip(pts[i], pts[b])] + [heights[i] - heights[b]]
            for i in idx[1:]
        ]
        rr, pivots = _orrref(rows + lineality)
        if pivots != list(range(d)):
            raise ValueError("the cell's system has no unique solution")
        out.append(tuple(row[-1] for row in rr))
    return tuple(out)


def span_cell_rank_dims(span) -> list[int]:
    """Dimension of every cell of an extended tight span, as the rank of
    its dual vertices' differences together with its dual rays."""
    dims = []
    for cell in span.cells:
        v0 = span.dual_vertices[cell.vertices[0]]
        gens = [
            [a - b for a, b in zip(span.dual_vertices[i], v0)]
            for i in cell.vertices[1:]
        ]
        gens += [list(span.dual_rays[i]) for i in cell.rays]
        dims.append(_orank(gens))
    return dims


# ---------------------------------------------------------------------------
# matroidality of subdivisions, cell by cell
# ---------------------------------------------------------------------------

def brute_cell_edges(config, cell_mask):
    """Edges of conv(cell points) as pairs (a, b), a < b, of point indices
    into config: pairs of vertices whose smallest face (the points on
    every facet through both) is collinear."""
    idx = [i for i in range(len(config.points)) if cell_mask >> i & 1]
    cell_pts = tuple(config.points[i] for i in idx)
    return [(idx[a], idx[b]) for a, b in _cell_edges(config.dim, cell_pts)]


@lru_cache(maxsize=4096)
def _cell_edges(dim, cell_pts):
    """Edges of conv(cell_pts) as index pairs into cell_pts, memoised on
    the points: a shrinking property test meets the same cells again and
    again, and each would cost a hull and a rank per vertex pair."""
    from tightspan.exactgeom import PointConfig, hull  # facets only; faces and ranks are ours

    hrep, inc, flags = hull(PointConfig(dim=dim, points=cell_pts))
    if hrep.dim < 1:
        return ()
    on_facet = [{j for j in range(len(cell_pts)) if row >> j & 1} for row in inc.rows]
    verts = [j for j in range(len(cell_pts)) if flags[j]]
    edges = []
    for a, b in combinations(verts, 2):
        face = set(range(len(cell_pts)))
        for on in on_facet:
            if a in on and b in on:
                face &= on
        # a and b lie in their face: it is collinear iff every point of it
        # differs from a by a multiple of d = pts[b] - pts[a], compared on
        # a coordinate k where d is nonzero
        base = cell_pts[a]
        d = [x - y for x, y in zip(cell_pts[b], base)]
        k = next(i for i, x in enumerate(d) if x)
        if all(
            (cell_pts[j][i] - base[i]) * d[k] == (cell_pts[j][k] - base[k]) * d[i]
            for j in face
            for i in range(dim)
        ):
            edges.append((a, b))
    return tuple(edges)


# ---------------------------------------------------------------------------
# normal fans
# ---------------------------------------------------------------------------

def normal_fan(config):
    """Normal fan of conv(config): rays are outward facet normals projected
    orthogonally to the lineality (= affine hull normals), maximal cones are
    the vertex normal cones.  Facets, incidences, vertex flags and the
    projection come from ``exactgeom``; the fan is built here."""
    from tightspan.exactgeom import Fan, _primitive, hull, orthogonalize, project_off

    hrep, inc, flags = hull(config)
    lin = tuple(_primitive(e.normal) for e in hrep.equations)
    ortho = orthogonalize(lin)
    ray_index: dict[tuple[int, ...], int] = {}
    rays: list[tuple[int, ...]] = []
    facet_ray: list[int] = []
    for f in hrep.facets:
        outward = project_off([-x for x in f.normal], ortho)
        if outward not in ray_index:
            ray_index[outward] = len(rays)
            rays.append(outward)
        facet_ray.append(ray_index[outward])
    cones = [
        tuple(sorted({facet_ray[j] for j, row in enumerate(inc.rows) if row >> i & 1}))
        for i, is_vertex in enumerate(flags)
        if is_vertex
    ]
    return Fan(rays=tuple(rays), maximal_cones=tuple(cones), lineality=lin)


# ---------------------------------------------------------------------------
# facet descriptions and volumes
# ---------------------------------------------------------------------------

def verify_hrep(hrep, config) -> bool:
    """Pointwise check of a facet description: every point satisfies every
    facet and equation, and every facet is supported by an affinely
    spanning point subset."""
    def value_at(facet, p):
        return sum(a * x for a, x in zip(facet.normal, p)) + facet.offset

    for eq in hrep.equations:
        if any(value_at(eq, p) != 0 for p in config.points):
            return False
    for fa in hrep.facets:
        vals = [value_at(fa, p) for p in config.points]
        if any(v < 0 for v in vals):
            return False
        onset = [p for p, v in zip(config.points, vals) if v == 0]
        if not onset:
            return False
        diffs = [[a - b for a, b in zip(p, onset[0])] for p in onset[1:]]
        if _orank(diffs) != hrep.dim - 1:
            return False
    return True


def triangulate(points) -> list[tuple[int, ...]]:
    """Placing triangulation of conv(points) into full-dimensional simplices,
    returned as index tuples into ``points``."""
    from tightspan.exactgeom import PointConfig, hull  # facets and vertices only

    hrep, inc, flags = hull(PointConfig(dim=len(points[0]), points=tuple(points)))
    verts = [i for i in range(len(points)) if flags[i]]
    if len(verts) == hrep.dim + 1:
        return [tuple(verts)]
    apex = min(verts, key=lambda i: points[i])
    simplices = []
    for row in inc.rows:
        if row >> apex & 1:
            continue
        fpts = [i for i in range(len(points)) if row >> i & 1]
        for s in triangulate([points[i] for i in fpts]):
            simplices.append(tuple(fpts[i] for i in s) + (apex,))
    return simplices


def relative_volume(points, pivots) -> Fraction:
    """Volume of conv(points) inside the coordinate subspace ``pivots``.

    The projection to the pivot coordinates must be injective on the affine
    hull; volumes computed with the same pivots are directly comparable.
    """
    uniq = []
    for p in points:
        q = tuple(Fraction(p[c]) for c in pivots)
        if q not in uniq:
            uniq.append(q)
    total = Fraction(0)
    for simplex in triangulate(uniq):
        apex = uniq[simplex[0]]
        total += abs(_odet([[a - b for a, b in zip(uniq[i], apex)] for i in simplex[1:]]))
    return total / factorial(len(pivots))


def _odet(rows) -> Fraction:
    """Determinant by expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        ((-1) ** j * x * _odet([r[:j] + r[j + 1:] for r in rows[1:]])
         for j, x in enumerate(rows[0]) if x),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# matroids and tropical membership
# ---------------------------------------------------------------------------

def brute_exchange(family) -> bool:
    """Basis exchange read off its definition on Python sets, for a family
    of index collections: for all bases B, B' and b in B - B' some b' in
    B' - B makes B - b + b' a basis."""
    bases = {frozenset(b) for b in family}
    return all(
        any(B - {b} | {c} in bases for c in B2 - B)
        for B in bases
        for B2 in bases
        for b in B - B2
    )


def reduced_char_at_zero(n: int, r: int, bases) -> int:
    """Value at 0 of the reduced characteristic polynomial chi_M(t) / (t - 1)
    of the rank-r matroid on [n] with the given bases (index collections),
    that is -chi_M(0): chi_M(0) is the sum of (-1)^|A| over the sets A of
    rank r, the rank of a set being its largest intersection with a basis."""
    if n > MAX_GROUND:
        raise ValueError(f"brute force limited to ground sets of size {MAX_GROUND}")
    family = [frozenset(b) for b in bases]

    def rank(a: frozenset) -> int:
        return max(len(a & b) for b in family)

    return -sum(
        (-1) ** k
        for k in range(n + 1)
        for a in combinations(range(n), k)
        if rank(frozenset(a)) == r
    )


def connected_components(m) -> list[int]:
    """Finest partition of the ground set of ``m`` into separators, as masks.

    A set A is a union of components iff rank(A) + rank(complement)
    equals the rank, the rank of a set being its largest intersection with
    a basis; the component of an element is the intersection of all
    separators containing it.
    """
    def rank(a: int) -> int:
        return max((a & b).bit_count() for b in m.bases)

    full = (1 << m.n) - 1
    separators = [
        a
        for a in range(1, full)
        if rank(a) + rank(full & ~a) == m.r
    ]
    components = []
    assigned = 0
    for i in range(m.n):
        if assigned >> i & 1:
            continue
        comp = full
        for s in separators:
            if s >> i & 1:
                comp &= s
        components.append(comp)
        assigned |= comp
    return components


def cell_at(vm, x):
    """Matroid of the bases minimizing value(B) - e_B . x, a cell of the
    subdivision a valuated matroid induces; exact rational comparison."""
    from tightspan.matroid import Matroid  # type construction only, no logic reuse

    m = vm.matroid
    xs = [Fraction(v) for v in x]
    if len(xs) != m.n:
        raise ValueError("point has wrong length")
    vals = {
        b: v - sum(xs[i] for i in range(m.n) if b >> i & 1)
        for b, v in vm.valuation.values.items()
    }
    best = min(vals.values())
    return Matroid(n=m.n, r=m.r, bases=frozenset(b for b, v in vals.items() if v == best))


def covers_point(tls, x) -> bool:
    """Whether the sum-zero class of x lies in the computed complex of a
    tropical linear space: x lies in the closed dual cell of a closed set F
    iff the cell cut out by F lies inside the minimizer set at x.  The
    cells come from ``subdivision.tight_span_closure``, the point order
    from ``matroid.sorted_bases``; the minimizer set from ``cell_at``."""
    from tightspan.matroid import sorted_bases
    from tightspan.subdivision import tight_span_closure

    pos = {b: i for i, b in enumerate(sorted_bases(tls.source.matroid))}
    argmin = sum(1 << pos[b] for b in cell_at(tls.source, x).bases)
    system = tight_span_closure(tls.source.subdivision)
    shift = len(tls.span.dual_vertices)  # a closed set lists its rays after its vertices
    nodes = (sum(1 << v for v in c.vertices) | sum(1 << r for r in c.rays) << shift
             for c in tls.span.cells)
    return any(system.cell(node) & ~argmin == 0 for node in nodes)


def brute_tls_membership(vm, x) -> bool:
    """Evaluate the defining condition directly: the bases minimizing
    value(B) - e_B . x must jointly cover the ground set."""
    m = vm.matroid
    best = None
    argmin = []
    for bmask in sorted(m.bases):
        dot = sum(Fraction(x[i]) for i in range(m.n) if bmask >> i & 1)
        val = vm.valuation.values[bmask] - dot
        if best is None or val < best:
            best = val
            argmin = [bmask]
        elif val == best:
            argmin.append(bmask)
    union = 0
    for bmask in argmin:
        union |= bmask
    return union == (1 << m.n) - 1
