"""Independent correctness checker for the kernelization benchmark.

Works from instance text and networkx alone and shares no algorithm with
``pitvd``: it has its own parser, and it decides the target class from the
textbook characterisation instead of pitvd's recognizer.  A graph is
*clean* when it is simple and every connected component is a tree or a
proper interval graph, and a graph is proper interval exactly when it is
chordal, AT-free and claw-free (chordal and AT-free is interval, by
Lekkerkerker and Boland 1962; interval and claw-free is proper interval, by
Roberts 1969).
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


def read_instance(text: str) -> tuple[nx.Graph, int]:
    """Instance file text -> (graph with a ``mult`` edge attribute, budget).

    Vertices are the labels 1..n of the header; duplicate edge lines add up.
    """
    g = nx.Graph()
    k = None
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n, k = int(fields[2]), int(fields[4])
            g.add_nodes_from(range(1, n + 1))
        elif fields[0] == "e":
            u, v, m = (int(x) for x in fields[1:4])
            if g.has_edge(u, v):
                g[u][v]["mult"] += m
            else:
                g.add_edge(u, v, mult=m)
    if k is None:
        raise ValueError("instance text has no problem line")
    return g, k


def claw_free(h: nx.Graph) -> bool:
    """No vertex has three pairwise non-adjacent neighbours."""
    for v in h:
        nbrs = list(h[v])
        for i, a in enumerate(nbrs):
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if h.has_edge(a, b):
                    continue
                if any(not h.has_edge(c, a) and not h.has_edge(c, b)
                       for c in nbrs[j + 1:]):
                    return False
    return True


def is_clean(g: nx.Graph) -> bool:
    """Simple, and every component a tree or a proper interval graph."""
    if any(m > 1 for _, _, m in g.edges(data="mult", default=1)):
        return False
    for comp in nx.connected_components(g):
        h = g.subgraph(comp)
        if nx.is_tree(h):
            continue
        if not (nx.is_chordal(h) and claw_free(h) and nx.is_at_free(h)):
            return False
    return True


def is_solution(g: nx.Graph, deletion) -> bool:
    """Does deleting ``deletion`` leave a clean graph?"""
    return is_clean(g.subgraph(set(g) - set(deletion)))


def brute_verdict(g: nx.Graph, k: int) -> bool:
    """Is there a deletion set of at most k vertices?  Exhaustive.

    The class is closed under taking induced subgraphs, so a solution of
    size below k extends to one of size exactly k; trying every k-subset
    (or the whole vertex set when k >= n) therefore decides the question.
    """
    verts = sorted(g)
    if k >= len(verts):
        return True
    return any(is_solution(g, xs) for xs in combinations(verts, k))
