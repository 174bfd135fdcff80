"""Clique partition of proper interval components.

For a connected proper interval graph with umbrella ordering v_1..v_n, the
partition is built by prefix jumps: the first block is v_1 .. v_{r(1)} where
r(i) is the last position adjacent to v_i, the next block starts at
r(1) + 1, and so on.  Each block is a clique, and the neighborhood of block
K_i lies inside K_{i-1} and K_{i+1} -- the blocks form a path of cliques.
That locality is what the long-component reduction rules lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recognition as rec
from .backend import bits
from .multigraph import MultiGraph


@dataclass(frozen=True)
class CliquePath:
    order: tuple[int, ...]                 # umbrella order, stable ids
    cliques: tuple[tuple[int, ...], ...]   # consecutive blocks of the order


def clique_path(g: MultiGraph, comp: list[int]) -> CliquePath:
    """Clique partition of one connected proper-interval component."""
    ids, _, adjm = g.compact(comp)
    full = (1 << len(ids)) - 1
    order_pos = rec.pig_order(adjm, full)
    if order_pos is None:
        raise ValueError("component is not a proper interval graph")
    n = len(order_pos)
    rank = {p: i for i, p in enumerate(order_pos)}
    radj = [0] * n
    for i, p in enumerate(order_pos):
        for q in bits(adjm[p] & full):
            radj[i] |= 1 << rank[q]
    blocks = []
    s = 0
    while s < n:
        later = radj[s] >> (s + 1)
        r = s + later.bit_length() if later else s
        for i in range(s, r + 1):  # sanity: a block really is a clique
            missing = ((1 << (r + 1)) - (1 << s)) & ~radj[i] & ~(1 << i)
            if missing:
                raise AssertionError("umbrella order produced a non-clique block")
        blocks.append(tuple(ids[order_pos[i]] for i in range(s, r + 1)))
        s = r + 1
    return CliquePath(order=tuple(ids[p] for p in order_pos),
                      cliques=tuple(blocks))


def attachment(g: MultiGraph, flank, mid) -> list[int]:
    """Vertices of ``flank`` with a neighbor in ``mid``."""
    mid_set = set(mid)
    return [a for a in flank if any(u in mid_set for u in g.neighbors(a))]

