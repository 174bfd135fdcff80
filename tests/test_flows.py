from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from pitvd.flows import Dinic, min_vertex_separator
from pitvd.multigraph import MultiGraph

from conftest import random_multigraph, to_networkx


def test_dinic_known_network():
    net = Dinic(4)
    net.add_edge(0, 1, 3)
    net.add_edge(0, 2, 2)
    net.add_edge(1, 2, 1)
    net.add_edge(1, 3, 2)
    net.add_edge(2, 3, 3)
    assert net.max_flow(0, 3) == 5


def test_dinic_disconnected():
    net = Dinic(4)
    net.add_edge(0, 1, 5)
    net.add_edge(2, 3, 5)
    assert net.max_flow(0, 3) == 0


def test_dinic_flow_on_and_residual():
    net = Dinic(3)
    e1 = net.add_edge(0, 1, 2)
    e2 = net.add_edge(1, 2, 1)
    assert net.max_flow(0, 2) == 1
    assert net.flow_on(e1) == 1
    assert net.flow_on(e2) == 1
    # residual still reaches 1 through spare capacity on the first arc
    assert net.residual_reachable(0) == {0, 1}


def brute_min_separator(g: MultiGraph, x, y):
    base = to_networkx(g)
    others = [v for v in base.nodes if v not in (x, y)]
    for size in range(len(others) + 1):
        for cut in itertools.combinations(others, size):
            h = base.copy()
            h.remove_nodes_from(cut)
            if not nx.has_path(h, x, y):
                return size
    raise AssertionError("unreachable")


def test_separator_fixed():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 3), (3, 2)])
    cut = min_vertex_separator(g, 0, 2)
    assert sorted(cut) in ([1, 3],)
    g2 = MultiGraph.from_edges([(0, 1), (1, 2)])
    assert min_vertex_separator(g2, 0, 2) == [1]


def test_separator_rejects_adjacent_endpoints():
    g = MultiGraph.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        min_vertex_separator(g, 0, 1)


def test_separator_on_a_long_path():
    """Augmenting paths longer than the interpreter's recursion limit."""
    g = MultiGraph.from_edges([(i, i + 1) for i in range(699)])
    assert min_vertex_separator(g, 0, 699) == [1]


def test_separator_random_vs_bruteforce():
    rng = random.Random(31)
    done = 0
    while done < 120:
        g = random_multigraph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.5))
        verts = g.vertices
        x, y = rng.sample(verts, 2)
        if g.has_edge(x, y):
            continue
        g = g.induced([v for v in verts
                       if v in (x, y) or rng.random() >= 0.15])
        gx = to_networkx(g)
        cut = min_vertex_separator(g, x, y)
        # the returned set separates
        gx.remove_nodes_from(cut)
        assert not nx.has_path(gx, x, y)
        # and is minimum
        assert len(cut) == brute_min_separator(g, x, y)
        done += 1


def test_separator_agrees_with_node_connectivity():
    rng = random.Random(77)
    done = 0
    while done < 60:
        g = random_multigraph(rng, rng.randint(5, 10), rng.uniform(0.25, 0.55))
        x, y = rng.sample(g.vertices, 2)
        if g.has_edge(x, y):
            continue
        want = nx.algorithms.connectivity.local_node_connectivity(
            to_networkx(g), x, y)
        assert len(min_vertex_separator(g, x, y)) == want
        done += 1
