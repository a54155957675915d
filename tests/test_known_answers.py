"""Known answers with coordinates: the expected values come from a tree or
a formula, never from the pipeline.

* The tight span of a tree metric is the tree (Dress, "Trees, tight
  extensions of metric spaces, and the cohomological dimension of certain
  groups", Adv. Math. 53, 1984).  It is dual to the regular subdivision of
  the points e_i + e_j (i <= j) lifted by -d(i, j), as the ``tightspan``
  command computes it with no gamma.
* The bounded part of the corank lift of U(1,2)^k is one (k-1)-cell, the
  cube [0,1]^k projected along the all-ones direction.  Its f-vector and
  vertices below were measured, not proven.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import u12_power
from tightspan import PointConfig, corank_valuation, coordinatize, regular_subdivision
from tightspan.troplin import ValuatedMatroid, tropical_linear_space


def random_tree(leaves: int, rng: random.Random) -> dict:
    """Edge -> integer weight 1-9 of a tree whose leaves are 0..leaves-1:
    each new leaf hangs on a new node that subdivides a random edge."""
    edges = {(0, 1): rng.randint(1, 9)}
    for leaf in range(2, leaves):
        a, b = rng.choice(sorted(edges))
        del edges[a, b]
        node = leaves + leaf - 2
        for edge in ((a, node), (node, b), (node, leaf)):
            edges[edge] = rng.randint(1, 9)
    return edges


def leaf_distances(leaves: int, edges: dict) -> dict:
    """(i, j) -> the length of the tree path between leaves i and j."""
    adjacent = {}
    for (a, b), w in edges.items():
        adjacent.setdefault(a, []).append((b, w))
        adjacent.setdefault(b, []).append((a, w))
    d = {}
    for i in range(leaves):
        far, todo = {i: 0}, [i]
        while todo:
            u = todo.pop()
            for v, w in adjacent[u]:
                if v not in far:
                    far[v] = far[u] + w
                    todo.append(v)
        d.update(((i, j), far[j]) for j in range(leaves))
    return d


def tight_span(n: int, d: dict):
    """The span of the metric ``d`` on n points, with d[i, i] = 0."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    config = PointConfig.from_rows(
        [[(k == i) + (k == j) for k in range(n)] for i, j in pairs]
    )
    return coordinatize(regular_subdivision(config, [-d[p] for p in pairs]))


@pytest.mark.parametrize("leaves", [4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_tight_span_of_a_tree_metric_is_the_tree(leaves, seed):
    edges = random_tree(leaves, random.Random(f"tree-{leaves}-{seed}"))
    span = tight_span(leaves, leaf_distances(leaves, edges))
    nodes = 2 * leaves - 2
    assert span.bounded_f_vector() == (nodes, nodes - 1)
    # the l-infinity length of a dual edge, modulo the all-ones lineality
    lengths = []
    for cell in span.cells:
        if cell.dim == 1 and not cell.rays:
            u, v = (span.dual_vertices[i] for i in cell.vertices)
            diff = [a - b for a, b in zip(u, v)]
            lengths.append((max(diff) - min(diff)) / 2)
    assert sorted(lengths) == sorted(edges.values())


def test_a_generic_four_point_metric_spans_a_rectangle_with_four_pendant_edges():
    d = {(0, 1): 10, (0, 2): 13, (0, 3): 12, (1, 2): 11, (1, 3): 14, (2, 3): 9}
    d.update({(j, i): w for (i, j), w in d.items()})
    d.update({(i, i): 0 for i in range(4)})
    assert tight_span(4, d).bounded_f_vector() == (8, 8, 1)


def corank_ladder(k: int):
    return tropical_linear_space(ValuatedMatroid(valuation=corank_valuation(u12_power(k))))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_the_corank_ladder_counts_the_faces_of_a_projected_cube(k):
    expected = [comb(k, j) * (2 ** (k - j) - 2) for j in range(k - 1)] + [1]
    assert corank_ladder(k).report["bounded_f_vector"] == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_corank_ladder_has_a_dual_vertex_per_proper_set_of_pairs(k):
    # e_S - (|S|/k) 1, with e_S the indicator of the 2|S| elements of the
    # pairs {2i, 2i + 1}, i in S
    expected = sorted(
        tuple(Fraction(x // 2 in s) - Fraction(len(s), k) for x in range(2 * k))
        for size in range(1, k)
        for s in map(set, combinations(range(k), size))
    )
    assert sorted(corank_ladder(k).span.dual_vertices) == expected
