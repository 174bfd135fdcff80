"""Clique partition of proper interval components.

For a connected proper interval graph with umbrella ordering v_1..v_n, the
partition is built by prefix jumps: the first block is v_1 .. v_{r(1)} where
r(i) is the last position adjacent to v_i, the next block starts at
r(1) + 1, and so on.  Each block is a clique, and the neighborhood of block
K_i lies inside K_{i-1} and K_{i+1} -- the blocks form a path of cliques.
That locality is what the long-component reduction rules lean on.

The block ends and the clique checks are read from the prefix masks of
the order (``backend.prefix_masks``), in the component's own positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recognition as rec
from . import backend as bk
from .multigraph import MultiGraph


@dataclass(frozen=True)
class CliquePath:
    order: tuple[int, ...]                 # umbrella order, stable ids
    cliques: tuple[tuple[int, ...], ...]   # consecutive blocks of the order


def clique_path(g: MultiGraph, comp: list[int]) -> CliquePath:
    """Clique partition of one connected proper-interval component.

    The component is compacted on its own, so its masks are as wide as
    the component, not the graph.  A block starting at position s ends
    at the last neighbour of its first vertex: that vertex's later
    neighbours, with the prefix before them, must form the prefix up to
    the block's end, and each vertex of the block must see the rest of
    it.  Both are checked on the prefix masks of the order and raise
    ``AssertionError`` when the order is not an umbrella order.
    """
    ids, _, adjm = g.compact(comp)
    order_pos = rec.pig_order(adjm, (1 << len(ids)) - 1)
    if order_pos is None:
        raise ValueError("component is not a proper interval graph")
    pre = bk.prefix_masks(order_pos)
    n = len(order_pos)
    blocks = []
    s = 0
    while s < n:
        upto = adjm[order_pos[s]] | pre[s + 1]
        r = upto.bit_count()  # one past the block's end
        if upto != pre[r]:
            raise AssertionError("umbrella order with a non-contiguous "
                                 "neighbourhood")
        block = pre[r] & ~pre[s]
        for p in order_pos[s:r]:
            if block & ~adjm[p] & ~(1 << p):
                raise AssertionError("umbrella order produced a non-clique "
                                     "block")
        blocks.append(tuple(ids[p] for p in order_pos[s:r]))
        s = r
    return CliquePath(order=tuple(ids[p] for p in order_pos),
                      cliques=tuple(blocks))


def attachment(g: MultiGraph, flank, mid) -> list[int]:
    """Vertices of ``flank`` with a neighbor in ``mid``."""
    mid_set = set(mid)
    return [a for a in flank if any(u in mid_set for u in g.neighbors(a))]

