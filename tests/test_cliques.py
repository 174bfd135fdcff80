from __future__ import annotations

import random

import pytest

from pitvd.cliques import clique_path
from pitvd.multigraph import MultiGraph


def mg(edges, vertices=()):
    return MultiGraph.from_edges(edges, vertices=vertices)


from conftest import unit_interval_graph


def check_invariants(g, comp):
    cp = clique_path(g, comp)
    # blocks partition the order
    flat = [v for blk in cp.cliques for v in blk]
    assert flat == list(cp.order)
    assert sorted(flat) == sorted(comp)
    # every block is a clique
    for blk in cp.cliques:
        for i, u in enumerate(blk):
            for v in blk[i + 1:]:
                assert g.has_edge(u, v)
    # block neighborhoods stay within the flanking blocks
    t = len(cp.cliques)
    for bi, blk in enumerate(cp.cliques):
        for u in blk:
            for w in g.neighbors(u):
                assert abs(cp.clique_of[w] - bi) <= 1
    # first vertex of each block is its order representative
    starts = []
    idx = 0
    for blk in cp.cliques:
        starts.append(cp.order[idx])
        idx += len(blk)
    assert [blk[0] for blk in cp.cliques] == starts
    return cp


def test_fixed_partitions():
    tri = mg([(0, 1), (1, 2), (0, 2)])
    assert clique_path(tri, [0, 1, 2]).cliques == ((0, 1, 2),)
    p4 = mg([(0, 1), (1, 2), (2, 3)])
    cp = clique_path(p4, [0, 1, 2, 3])
    assert cp.cliques == ((0, 1), (2, 3))
    k4 = mg([(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert len(clique_path(k4, [0, 1, 2, 3]).cliques) == 1


def test_path_power_partition():
    n = 9
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 3, n))]
    g = mg(edges)
    cp = check_invariants(g, list(range(n)))
    assert cp.cliques[0] == (0, 1, 2)


def test_non_pig_rejected():
    c4 = mg([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        clique_path(c4, [0, 1, 2, 3])


def test_random_unit_interval_invariants():
    rng = random.Random(123)
    for _ in range(80):
        g = unit_interval_graph(rng, rng.randint(3, 16), rng.uniform(1.5, 6.0))
        for comp in g.components():
            check_invariants(g, comp)

