"""Matroids from bases: rank, flats, loops, polytopes, sums and census parsing.

Bases are stored as bit masks over the ground set [n].  The rank of a set A
is the maximum intersection size with a basis; flats are the closed sets of
the induced closure operator.  Basis exchange is tested one swap at a time:
for a basis B and b in B, the b' with B - b + b' a basis (b among them) must
meet every basis, which needs no scan on U(r, n) and on small swap
complements.  Matroid polytopes are the convex hulls of the characteristic
vectors of the bases; by the exchange characterization, their edges are
parallel to differences of two unit vectors.  Whether a regular subdivision
is matroidal is decided on bases: its support by basis exchange, its cells
by the exchange inequalities of its heights, see ``non_matroidal_witness``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .closure import ClosureSystem, GroundSet, indices, mask_of
from .exactgeom import (
    PointConfig,
    _primitive,
    parse_int,
    parse_rational,
    polytope_closure_vertex,
)
from .subdivision import Subdivision


class MatroidError(ValueError):
    pass


def _unique_keys(pairs) -> dict:
    """JSON object hook: a dict of the pairs, refusing a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise MatroidError(f"key {key!r} appears twice")
        out[key] = value
    return out


class Matroid(namedtuple("Matroid", "n r bases")):
    """Matroid on [n] given by its bases (bit masks of cardinality r)."""

    __slots__ = ()

    def __new__(cls, n: int, r: int, bases: frozenset[int]):
        if n < 1:
            raise MatroidError("a matroid needs a nonempty ground set")
        if not bases:
            raise MatroidError("a matroid needs at least one basis")
        for b in bases:
            if b.bit_count() != r:
                raise MatroidError("all bases must have the same cardinality")
            if b >> n:
                raise MatroidError("basis element outside the ground set")
        return super().__new__(cls, n, r, bases)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_bases(n: int, bases) -> "Matroid":
        """Matroid on [n] from bases given as masks or as lists of distinct
        indices in 0..n-1; raises MatroidError unless basis exchange holds."""
        masks = set()
        for b in bases:
            if not isinstance(b, int):
                if any(not 0 <= i < n for i in b):
                    raise MatroidError("basis element outside the ground set")
                if len(set(b)) != len(b):
                    raise MatroidError(f"basis {list(b)} repeats an element")
                b = mask_of(b)
            masks.add(b)
        if not masks:
            raise MatroidError("a matroid needs at least one basis")
        r = next(iter(masks)).bit_count()
        m = Matroid(n=n, r=r, bases=frozenset(masks))
        if not m.satisfies_exchange():
            raise MatroidError("basis family violates the exchange axiom")
        return m

    @staticmethod
    @lru_cache(maxsize=8)
    def uniform(r: int, n: int) -> "Matroid":
        if not 1 <= r <= n:
            raise MatroidError("uniform matroid needs 1 <= r <= n")
        return Matroid(
            n=n, r=r, bases=frozenset(mask_of(c) for c in combinations(range(n), r))
        )

    @staticmethod
    def from_json(text: str) -> "Matroid":
        data = json.loads(text)
        n = parse_int(data["n"], "n")
        bases = [[parse_int(i, "basis index") for i in b] for b in data["bases"]]
        m = Matroid.from_bases(n, bases)
        if "r" in data and parse_int(data["r"], "r") != m.r:
            raise MatroidError(
                f"stated rank r = {data['r']} differs from the basis size {m.r}"
            )
        return m

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "r": self.r,
                "bases": sorted(list(indices(b)) for b in self.bases),
            },
            sort_keys=True,
        )

    # -- axioms -----------------------------------------------------------

    def satisfies_exchange(self) -> bool:
        """Whether the bases satisfy the basis exchange axiom."""
        return _passes_exchange(self.bases, self.n, self.r)

    # -- rank and flats ----------------------------------------------------

    def rank(self, subset: int) -> int:
        return max((subset & b).bit_count() for b in self.bases)

    def closure_system(self) -> ClosureSystem:
        ground = GroundSet(self.n)

        def close(a: int) -> int:
            ra = self.rank(a)
            others = indices(ground.full_mask ^ a)
            return a | mask_of(x for x in others if self.rank(a | 1 << x) == ra)

        return ClosureSystem(ground, close)

    def loops(self) -> int:
        used = 0
        for b in self.bases:
            used |= b
        return ((1 << self.n) - 1) & ~used

    # -- geometry ------------------------------------------------------------

    @lru_cache(maxsize=8)
    def polytope(self) -> PointConfig:
        """Convex hull of the characteristic vectors of the bases, with the
        points listed in lexicographic basis order."""
        rows = tuple(
            tuple(b >> i & 1 for i in range(self.n)) for b in sorted_bases(self)
        )
        return PointConfig(dim=self.n, points=rows)

    # -- sums ----------------------------------------------------------------

    def direct_sum(self, other: "Matroid") -> "Matroid":
        bases = frozenset(
            b1 | (b2 << self.n) for b1 in self.bases for b2 in other.bases
        )
        return Matroid(n=self.n + other.n, r=self.r + other.r, bases=bases)


@lru_cache(maxsize=8)
def _passes_exchange(bases: frozenset[int], n: int, r: int) -> bool:
    """Basis exchange on a set of r-subsets of [n] (masks): for B, B' and b
    in B - B' there is b' in B' - B with B - b + b' a basis.  For each B and
    b in B this says that every basis meets the swaps S = {b' : B - b + b'
    a basis}, which hold b.  A basis missing S lies in the complement of S,
    which holds B - b and the c with B - b + c no basis; so it takes two
    such c, and a complement of r or fewer elements needs no scan.  All
    C(n, r) r-sets form U(r, n).  The answer is kept per basis family, so a
    family read from a file and then gated is decided once."""
    if len(bases) == comb(n, r):
        return True
    full = (1 << n) - 1
    for basis in bases:
        for b in indices(basis):
            rest = basis ^ 1 << b
            swaps = mask_of(c for c in indices(full ^ rest) if rest | 1 << c in bases)
            if (full ^ swaps).bit_count() > r and not all(
                other & swaps for other in bases
            ):
                return False
    return True


@lru_cache(maxsize=8)
def sorted_bases(m: Matroid) -> tuple[int, ...]:
    """Bases in lexicographic order of their sorted index tuples."""
    return tuple(sorted(m.bases, key=indices))


class Valuation(namedtuple("Valuation", "owner values")):
    """Rational value per basis of an owner matroid."""

    __slots__ = ()

    def __new__(cls, owner: Matroid, values: dict):
        if set(values) != set(owner.bases):
            raise MatroidError("valuation must assign a value to every basis")
        return super().__new__(cls, owner, values)

    def heights(self) -> tuple[Fraction, ...]:
        """Values aligned to the polytope's point order."""
        return tuple(self.values[b] for b in sorted_bases(self.owner))

    @staticmethod
    def zero(owner: Matroid) -> "Valuation":
        return Valuation(owner=owner, values={b: Fraction(0) for b in owner.bases})

    @staticmethod
    def from_json(owner: Matroid, text: str) -> "Valuation":
        """Read ``{"values": {"i,j,...": value}}``.  Each key lists a basis
        of ``owner`` by its indices in increasing order, and no basis twice;
        any other key raises MatroidError naming it."""
        data = json.loads(text, object_pairs_hook=_unique_keys)
        values = {}
        for key, val in data["values"].items():
            try:
                idx = [int(t) for t in key.split(",")] if key else []
            except ValueError:
                raise MatroidError(
                    f"valuation key {key!r} is not a comma-joined list of indices"
                ) from None
            if any(not 0 <= i < owner.n for i in idx):
                raise MatroidError(
                    f"valuation key {key!r} has an index outside 0..{owner.n - 1}"
                )
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise MatroidError(
                    f"valuation key {key!r} does not list distinct indices "
                    "in increasing order"
                )
            basis = mask_of(idx)
            if basis not in owner.bases:
                raise MatroidError(f"valuation key {key!r} is not a basis of the matroid")
            if basis in values:
                raise MatroidError(f"valuation key {key!r} names a basis given before")
            values[basis] = parse_rational(val)
        return Valuation(owner=owner, values=values)

    def to_json(self) -> str:
        out = {}
        for b, v in self.values.items():
            key = ",".join(map(str, indices(b)))
            out[key] = str(v)
        return json.dumps(
            {"n": self.owner.n, "r": self.owner.r, "values": out}, sort_keys=True
        )


def corank_valuation(m: Matroid) -> Valuation:
    """Valuation on the uniform matroid of the same rank and ground set,
    assigning each basis its corank r - rank_m(B)."""
    uni = Matroid.uniform(m.r, m.n)
    values = {b: Fraction(m.r - m.rank(b)) for b in uni.bases}
    return Valuation(owner=uni, values=values)


# ---------------------------------------------------------------------------
# matroidality of subdivisions
# ---------------------------------------------------------------------------

def is_hypersimplex_subset(points) -> bool:
    """Whether the points are 0/1 vectors with one coordinate sum r, that is
    vertices of the hypersimplex Delta(r, n): the configurations the
    matroidality gate decides."""
    return all(x == 0 or x == 1 for p in points for x in p) and (
        len({p.count(1) for p in points}) == 1
    )


@lru_cache(maxsize=8)
def _supports(config: PointConfig) -> tuple[int, ...] | None:
    """The points' supports as masks, or None unless the points pass
    ``is_hypersimplex_subset``."""
    if not is_hypersimplex_subset(config.points):
        return None
    return tuple(mask_of(i for i, x in enumerate(p) if x == 1) for p in config.points)


@lru_cache(maxsize=8)
def _exchange_pairs(config: PointConfig) -> tuple[tuple, ...]:
    """The exchange pass's point pairs of a 0/1 configuration, in (a, b)
    order: each a < b whose supports B = S+i+j and B' = S+k+l differ in
    four elements, as (a, b, p1, q1, p2, q2) with p1, q1 the points of
    S+j+k and S+i+l and p2, q2 those of S+j+l and S+i+k; a cross pair with
    a point missing is (None, None)."""
    bases = _supports(config)
    point = {B: a for a, B in enumerate(bases)}.get
    pairs = []
    for a, B in enumerate(bases):
        for b in range(a + 1, len(bases)):
            diff = B ^ bases[b]
            if diff.bit_count() != 4:
                continue
            out = B & diff
            inn = diff ^ out
            i, k = out & -out, inn & -inn
            j, l = out ^ i, inn ^ k
            p1, q1, p2, q2 = point(B ^ j ^ k), point(B ^ i ^ l), point(B ^ j ^ l), point(B ^ i ^ k)
            if p1 is None or q1 is None:
                p1 = q1 = None
            if p2 is None or q2 is None:
                p2 = q2 = None
            pairs.append((a, b, p1, q1, p2, q2))
    return tuple(pairs)


def non_matroidal_witness(sub: Subdivision):
    """Return (cell mask, pts[b] - pts[a]) for an edge a-b of a maximal cell
    not parallel to any e_i - e_j, or None when every cell is a matroid
    polytope.  Raises ValueError unless the points pass
    ``is_hypersimplex_subset``.

    No hull is built.  Support pass: by Gelfand-Goresky-MacPherson-
    Serganova, every edge of conv(points) is parallel to some e_i - e_j iff
    the points' supports pass basis exchange, which decides the pass.  Only
    when they fail are the point pairs walked, to name the first edge in
    (a, b) order that is parallel to none: 0/1 points are vertices, no
    three collinear, so a-b is an edge iff its smallest face is {a, b}, and
    such an edge is an edge of every maximal cell holding a and b.
    Exchange pass, deciding on a matroid support
    (Dress-Wenzel; Murota, Thm 5.2.25; Speyer, Prop. 2.2): B = S+i+j and
    B' = S+k+l need v(B) + v(B') >= min(v(S+i+k) + v(S+j+l), v(S+i+l) +
    v(S+j+k)), a missing basis counting as +infinity; otherwise B-B' is the
    lowest diagonal of its octahedron face, an edge of the subdivision.
    The supports and the exchange pass's pairs depend on the configuration
    alone and are computed once per configuration.
    """
    pts = sub.config.points
    bases = _supports(sub.config)
    if bases is None:
        raise ValueError(
            "the matroidality gate needs 0/1 points with a constant coordinate sum"
        )

    def witness(a: int, b: int):
        pair = 1 << a | 1 << b
        cell = next(c for c in sub.maximal_cells if c & pair == pair)
        return cell, tuple(x - y for x, y in zip(pts[b], pts[a]))

    if not _passes_exchange(frozenset(bases), sub.config.dim, pts[0].count(1)):
        faces = polytope_closure_vertex(sub.base_incidence)
        for a, b in combinations(range(len(bases)), 2):
            pair = 1 << a | 1 << b
            diagonal = (bases[a] ^ bases[b]).bit_count() > 2
            if diagonal and faces.close_cell(faces.cell(pair)) == pair:
                return witness(a, b)

    # the exchange inequalities are invariant under positive scaling, so
    # they are decided on the heights scaled to a primitive integer vector
    value = _primitive(sub.heights)
    for a, b, p1, q1, p2, q2 in _exchange_pairs(sub.config):
        total = value[a] + value[b]
        if (p1 is None or value[p1] + value[q1] > total) and (
            p2 is None or value[p2] + value[q2] > total
        ):
            return witness(a, b)
    return None


# ---------------------------------------------------------------------------
# census files
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def census_order(n: int, r: int, order: str = "lex") -> tuple[tuple[int, ...], ...]:
    """The r-subsets of [n] in the census ``order``, built once per shape."""
    if order not in ("lex", "revlex"):
        raise MatroidError(f"unknown census ordering {order!r}")
    subsets = tuple(combinations(range(n), r))
    return subsets if order == "lex" else subsets[::-1]


def parse_census_line(line: str, n: int, r: int, order: str = "lex") -> Matroid:
    """Decode one census bitstring (characters 0/1/*, '*' counts as 1) into a
    matroid; the exchange axiom is always verified.  The length is checked
    before the basis order is built, so a wrong shape fails at once."""
    line = line.strip()
    if len(line) != comb(n, r):
        raise MatroidError(f"census line has {len(line)} characters, expected {comb(n, r)}")
    subsets = census_order(n, r, order)
    bases = []
    for ch, subset in zip(line, subsets):
        if ch in "1*":
            bases.append(mask_of(subset))
        elif ch != "0":
            raise MatroidError(f"invalid census character {ch!r}")
    if not bases:
        raise MatroidError("census line encodes no bases")
    m = Matroid(n=n, r=r, bases=frozenset(bases))
    if not m.satisfies_exchange():
        raise MatroidError("census line violates the exchange axiom")
    return m


def format_census_line(m: Matroid, order: str = "lex") -> str:
    subsets = census_order(m.n, m.r, order)
    return "".join("1" if mask_of(s) in m.bases else "0" for s in subsets)
