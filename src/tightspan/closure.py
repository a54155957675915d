"""Finite closure systems and output-sensitive Hasse diagram enumeration.

Subsets of a ground set {0, ..., n-1} are encoded as Python ints used as
bit vectors: bit i is set iff element i belongs to the subset.  This gives
O(1) canonical encodings, hashing and subset tests, which is what keeps
the enumeration output-sensitive.  This layer holds masks only: elements
have no names here (the CLI's dot renderer names them).  The package
converts between the two views only here: :func:`indices` lists the
elements of a mask in increasing order, walking its set bits from the
lowest, and :func:`mask_of` is the inverse.

The central routine is :func:`ganter_hasse`, a breadth-first variant of
Ganter's 1984 closure enumeration: every closed set is pushed to the queue
exactly once, so the total work is linear in the number of covering pairs
(up to the cost of the closure operator itself).  Its cover test is one
mask comparison per candidate: H covers N iff the i that give H are H - N.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Callable, NamedTuple


def indices(mask: int) -> tuple[int, ...]:
    """Elements of the subset ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(elements) -> int:
    """Bit mask of a collection of nonnegative ints; repeats are ignored."""
    return sum(1 << e for e in set(elements))


# the default bound on the closed sets one enumeration may find
NODE_CAP = 10_000_000


class NodeCapExceeded(RuntimeError):
    """Enumeration would exceed the configured node cap."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"closed-set enumeration exceeded node cap {cap} "
            f"({partial_count} closed sets found before aborting)"
        )
        self.cap = cap
        self.partial_count = partial_count


class GroundSet(namedtuple("GroundSet", "size")):
    """Finite ground set with elements 0..size-1, subsets of it as masks."""

    __slots__ = ()

    def __new__(cls, size: int):
        if size < 1:
            raise ValueError("ground set must contain at least one element")
        return super().__new__(cls, size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


class ClosureSystem:
    """A ground set together with a closure operator on its subsets.

    The operator must be extensive, monotone and idempotent.  That is the
    caller's responsibility; it is spot-checked by the test suite only.
    A ClosureSystem never changes its operator.  :meth:`candidates` is the
    one hook :func:`ganter_hasse` asks for the candidates of a node; a
    subclass may form them without the operator and may place the full
    set's key anywhere.  :class:`IncidenceClosure`
    caches facts about its own operator as it enumerates; each fact is
    true whichever call records it, so no answer depends on the call
    order.  The caches are plain dicts with no locking (``--jobs`` runs
    worker processes, not threads).
    """

    def __init__(self, ground: GroundSet, close_fn: Callable[[int], int]):
        self.ground = ground
        self._close_fn = close_fn
        self._full = ground.full_mask

    def close(self, subset: int) -> int:
        return self._close_fn(subset)

    def candidates(self, nmask: int) -> dict[int, int]:
        """Map each candidate closure cl(N + i), i outside N, to the mask of
        the i that give it: keys other than the full set in the order of
        their first i; the full set covers N only as its only key, so its
        place is free.  Here every key sits at its first i, and the operator
        is called directly, not through :meth:`close`."""
        close = self._close_fn
        out: dict[int, int] = {}
        m = self._full & ~nmask
        while m:
            low = m & -m
            c = close(nmask | low)
            out[c] = out.get(c, 0) | low
            m ^= low
        return out


def transpose(rows, width: int) -> tuple[int, ...]:
    """Transpose of a 0/1 matrix given as row masks over ``width`` columns:
    entry k of the result is the mask of the rows whose bit k is set."""
    cols = [0] * width
    for j, r in enumerate(rows):
        for k in indices(r):
            cols[k] |= 1 << j
    return tuple(cols)


class IncidenceClosure(ClosureSystem):
    """Closure system given by an incidence structure between generators
    (the ground elements) and points.

    ``rows[j]`` is the point mask of generator j; the ground set is
    {0, ..., len(rows) - 1}.  The cell of a set F of
    generators is the intersection of their rows (all points for F empty),
    and F closes to every generator whose row contains that cell:
    cl(F) = close_cell(cell(F)), with cl(empty set) = empty set.  A cell
    lying inside one of the ``forbidden`` point masks closes to the full
    ground set instead: the closed sets are restricted to the lower set
    keep(F) = "cell(F) lies in no forbidden mask", stated as a mask test
    (``oracle.restrict_to_lower_set`` states it on any closure system).

    Single closures run through :meth:`ClosureSystem.close`.  The
    candidates of a node N are formed from its cell instead (Kaibel and
    Pfetsch, Comput. Geom. 2002): cl(N + i) = close_cell(cell(N) & rows[i]),
    so :meth:`candidates` intersects cell(N) once with each row.  Two
    caches of facts about this operator make it form and close less:

    * ``_closed`` maps each cell to its closure, so each distinct cell is
      closed once per system, however many nodes form it;
    * ``_alive`` maps a closed set c to the generators i for which
      cl(c + i) may still lie below the full set.  The closure is
      monotone, so once cl(N + i) is the full set, so is cl(c + i) for
      every key c = cl(N + j) above N; c inherits only N's live i.  The
      other i outside c join the full set's mask, whose key comes last,
      without forming their cells.  Generators inside a forbidden mask
      drop out at the root.
    """

    def __init__(self, rows, n_points: int, forbidden=()):
        rows = tuple(rows)
        ground = GroundSet(len(rows))
        all_points = (1 << n_points) - 1
        if any(r & ~all_points for r in rows):
            raise ValueError("incidence row outside the point set")
        super().__init__(ground, self._close)
        self.rows = rows
        self.n_points = n_points
        self.containing = transpose(rows, n_points)
        self.forbidden = tuple(forbidden)
        self._all_points = all_points
        self._closed: dict[int, int] = {}  # cell -> close_cell(cell)
        self._alive: dict[int, int] = {}  # closed set -> i not known to give full

    def cell(self, subset: int) -> int:
        """Intersection of the rows of the generators in ``subset``."""
        q = self._all_points
        rows = self.rows
        while subset:
            low = subset & -subset
            q &= rows[low.bit_length() - 1]
            subset ^= low
        return q

    def close_cell(self, cell: int) -> int:
        """All generators whose row contains ``cell``, or the full ground
        set when ``cell`` lies inside a forbidden mask."""
        for t in self.forbidden:
            if cell & ~t == 0:
                return self._full
        out = self._full
        containing = self.containing
        while cell:
            low = cell & -cell
            out &= containing[low.bit_length() - 1]
            cell ^= low
        return out

    def _close(self, subset: int) -> int:
        return self.close_cell(self.cell(subset)) if subset else 0

    def candidates(self, nmask: int) -> dict[int, int]:
        full = self._full
        outside = full & ~nmask
        alive = self._alive.get(nmask, full) & outside
        # the candidates of the alive i from their cells, each distinct cell
        # closed once per system
        base = self.cell(nmask)
        rows = self.rows
        closed = self._closed
        close_cell = self.close_cell
        by_closure: dict[int, int] = {}
        m = alive
        while m:
            low = m & -m
            q = base & rows[low.bit_length() - 1]
            c = closed.get(q)
            if c is None:
                c = closed[q] = close_cell(q)
            by_closure[c] = by_closure.get(c, 0) | low
            m ^= low
        # the other outside i give the full set: add them to its mask
        to_full = by_closure.pop(full, 0) | outside & ~alive
        # monotonicity: cl(c + i) is full for every c above nmask once
        # cl(nmask + i) is, so the keys inherit only the live i
        live = outside & ~to_full
        alive_at = self._alive
        for c in by_closure:
            alive_at[c] = alive_at.get(c, full) & live
        if to_full:
            by_closure[full] = to_full
        return by_closure


class HasseDiagram(NamedTuple):
    """Covering-relation digraph of the closed sets, arcs directed upward.

    ``nodes`` holds each closed set exactly once as a mask, in discovery
    (BFS) order; an arc is a pair of node positions.  ``closure_calls``
    counts the closures taken, for the output-sensitivity checks.
    ``as_dict`` is the diagram as a JSON-ready document: each node as its
    sorted element list, each arc as an index pair.  ``to_dot`` writes
    each element as ``name(i)``.
    """

    nodes: list[int]
    arcs: list[tuple[int, int]]
    closure_calls: int = 0

    def heights(self) -> list[int]:
        """Longest-path height of every node above the root.

        Node discovery order is not topological in general, so nodes are
        processed by cardinality (a subset always has fewer elements).
        """
        h = [0] * len(self.nodes)
        out: dict[int, list[int]] = {}
        for a, b in self.arcs:
            out.setdefault(a, []).append(b)
        for i in sorted(range(len(self.nodes)), key=lambda j: self.nodes[j].bit_count()):
            for j in out.get(i, ()):
                if h[i] + 1 > h[j]:
                    h[j] = h[i] + 1
        return h

    def as_dict(self) -> dict:
        return {
            "nodes": [list(indices(m)) for m in self.nodes],
            "arcs": [list(a) for a in self.arcs],
        }

    def to_dot(self, name: Callable[[int], str] = str) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, m in enumerate(self.nodes):
            label = ",".join(name(e) for e in indices(m))
            lines.append(f'  n{i} [label="{{{label}}}"];')
        for a, b in self.arcs:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def ganter_hasse(system: ClosureSystem, node_cap: int = NODE_CAP) -> HasseDiagram:
    """Enumerate all closed sets and their covering arcs.

    Breadth-first over a FIFO queue seeded with close(empty set).  For a
    dequeued closed set N, ``system.candidates`` maps each distinct
    cl(N + {i}), i outside N, to the mask of the i that give it; an
    incidence closure forms them from the cell of N.  ``closure_calls``
    counts the i.  A candidate H covers N iff its mask is H - N (Kaibel and
    Pfetsch, Comput. Geom. 2002): only i in H - N can give H; all of them
    do when H covers N, and none from a closed set strictly between N and
    H does otherwise.  A closure is extensive, so H - N is H ^ N.  The test
    holds for every closure operator.  Covers keep their candidates' order.
    The full set covers N only when every i outside N gives it, and then it
    is N's only key, so where a system places its key changes no output.

    Raises NodeCapExceeded once more than ``node_cap`` closed sets appear.
    """
    n = system.ground.size
    closure_calls = 0

    root = system.close(0)
    closure_calls += 1
    nodes = [root]
    index = {root: 0}
    arcs: list[tuple[int, int]] = []
    queue: deque[int] = deque([0])

    while queue:
        ni = queue.popleft()
        nmask = nodes[ni]
        closure_calls += n - nmask.bit_count()
        for c, gens in system.candidates(nmask).items():
            if gens != c ^ nmask:
                continue
            ci = index.get(c)
            if ci is None:
                if len(nodes) >= node_cap:
                    raise NodeCapExceeded(node_cap, len(nodes))
                ci = len(nodes)
                nodes.append(c)
                index[c] = ci
                queue.append(ci)
            arcs.append((ni, ci))

    return HasseDiagram(nodes, arcs, closure_calls)


def poset_statistics(diagram: HasseDiagram, rank_of: Callable[[int], int]) -> list[int]:
    """Count nodes per rank value, as a list indexed by rank 0..max."""
    if not diagram.nodes:
        return []
    ranks = [rank_of(m) for m in diagram.nodes]
    counts = [0] * (max(ranks) + 1)
    for r in ranks:
        if r < 0:
            raise ValueError("rank function must be nonnegative")
        counts[r] += 1
    return counts
