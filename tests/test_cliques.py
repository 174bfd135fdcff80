from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest

import pitvd
from pitvd.cliques import clique_path
from pitvd.multigraph import MultiGraph


def mg(edges, vertices=()):
    return MultiGraph.from_edges(edges, vertices=vertices)


from conftest import clique_path_by_ranks, unit_interval_graph


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
    clique_of = {v: bi for bi, blk in enumerate(cp.cliques) for v in blk}
    for bi, blk in enumerate(cp.cliques):
        for u in blk:
            for w in g.neighbors(u):
                assert abs(clique_of[w] - bi) <= 1
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



def test_blocks_match_the_rank_space_oracle():
    """The prefix-mask blocks are the blocks cut in rank space, on the
    components of random unit interval graphs, some of them beside other
    vertices so that their ids start high."""
    rng = random.Random(4321)
    blocks = 0
    for trial in range(150):
        g = unit_interval_graph(rng, rng.randint(1, 30), rng.uniform(1.0, 8.0))
        if trial % 2:
            g = g.induced(v for v in g.vertices if v >= g.n // 3)
        for comp in g.components():
            cp = clique_path(g, comp)
            assert (cp.order, cp.cliques) == clique_path_by_ranks(g, comp)
            blocks += len(cp.cliques)
    assert blocks >= 300


@pytest.mark.parametrize("order, message", [
    ((0, 2, 1), "umbrella order with a non-contiguous neighbourhood"),
    ((1, 0, 2), "umbrella order produced a non-clique block"),
], ids=["contiguity", "clique"])
def test_block_checks_survive_python_O(order, message):
    """An order that is no umbrella order, handed over as one, is caught
    under ``python -O`` too: the later neighbours of 0 in (0, 2, 1) are
    not a run, and (1, 0, 2) puts the path 0-1-2 in one block."""
    script = textwrap.dedent(f"""
        import pitvd.recognition as rec
        from pitvd.cliques import clique_path
        from pitvd.multigraph import MultiGraph
        assert False, "asserts must be stripped"
        rec.pig_order = lambda adjm, comp: {order!r}
        clique_path(MultiGraph.from_edges([(0, 1), (1, 2)]), [0, 1, 2])
    """)
    src = os.path.dirname(os.path.dirname(pitvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert f"AssertionError: {message}" in done.stderr, done.stderr
