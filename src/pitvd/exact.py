"""Exact decision of the deletion problem by bounded branching.

``decide(G, k)`` finds a deletion set of size at most k whose removal
leaves a simple graph with every component a proper interval graph or a
tree, or proves none exists.  Branching is driven by the certifying
recognizer: parallel edges, nets, tents and holes must each lose one of
their own vertices, giving a bounded branch; a component rejected only for
hosting both a claw and a triangle must lose *some* vertex, so the branch
ranges over that component, or at a tight node (below) over a connected
claw-and-triangle span of it.

Failed candidates are banned.  The branching is exhaustive, so once the
subtree of a candidate v fails, no solution of its node contains v, and
v is banned in the subtrees of its later siblings: no deleted set is
searched twice.  One lower bound prunes the search too.  A component of
G - gone that is bad (a parallel edge, or neither a tree nor a proper
interval graph) stays a component, and stays bad, unless one of its own
vertices is deleted; so a node with more bad components than deletions
left holds no solution and is closed before any witness is searched
for.  The ban and the bound cut only subtrees without a solution and
leave the branching order as it is, so the search returns the first
solution that the unpruned depth-first search finds; a no-instance with
more bad components than k is decided at the root.

A node is tight when its bad components number exactly its deletions
left, kk.  Below it every solution deletes exactly one vertex of each bad
component, so a child for v in the first one, C, survives its visit only
if v is in Sol = {v : C - v is clean}; any other child keeps kk bad
components with kk - 1 deletions and is closed at once.  Every surviving
child faces the same search on the other bad components, under the same
bans there: the bans of its closed siblings are vertices of C, and once
C - v is clean no vertex of C is a candidate again.  So the node returns
the least unbanned v of Sol, then that search, for any candidate set
that holds Sol, taken in ascending order.  Sol lies inside every net,
tent and hole of C, since one that missed v would survive in C - v.  It
also lies inside H, an induced claw, a triangle and a shortest path
between them: a deletion set that misses H leaves H connected in one
component, which keeps an induced claw and a triangle and so is neither
a proper interval graph (Roberts 1969) nor a tree.  A tight node without
parallel edges therefore branches on ``recognition.tight_candidates``:
the hole that C's chordality check closes, whole when it has at most 6
vertices and cut down to H when it is longer, or on a chordal C its
first net or tent, else V(H) rather than all of C.  Only a long hole with
no claw-and-triangle span is left to ``witness``.  This is the
bounded-search-tree argument of Cygan et al., *Parameterized Algorithms*
(2015), ch. 3; the first solution is unchanged, and a node with spare
deletions still branches over the whole of a claw+triangle component.

The search reads the graph's kept bitmask view (``MultiGraph.view``),
built at most once per graph state: its closing validation reads the
same view, and so does the base-set stage after it.  A node's state is
``(kk, alive mask, banned mask)`` over that view, with the parallel
pairs kept as position pairs, so no node copies or re-compacts the
graph.

A branching node knows all its bad components, and its candidate v lies
in one of them, C.  Deleting v leaves every other component as it was,
so a child recognizes only the pieces of C - v and carries the parent's
other bad components over; an untouched component, clean or bad, is
recognized once per search rather than once per node.  The root starts
the same way from what the graph already knows: the components that
carry rule 1's "not clean" verdict are bad, so the root carries them and
recognizes only the rest.  With more of them than k the answer is no
before the view is even built.  The root's bad components, and so
every node and the first solution, are those of a search on a copy
without verdicts.

This is exponential and guarded by an explicit node budget; it serves as
the bootstrap for the modulator and as the correctness oracle for the
reduction pipeline, not as a general-purpose solver.
"""

from __future__ import annotations

from . import recognition as rec
from .backend import bits, id_mask
from .multigraph import MultiGraph

DEFAULT_NODE_LIMIT = 400_000


class SearchLimitExceeded(RuntimeError):
    """The branching search outgrew its node budget; no verdict."""


def decide(g: MultiGraph, k: int,
           node_limit: int = DEFAULT_NODE_LIMIT) -> list[int] | None:
    """A deletion set of size <= k (sorted ids), or None if none exists."""
    if k < 0:
        return None
    judged = g.judged_components()
    if len(judged) > k:  # more bad components than deletions
        return None
    ids, index, adjm = g.view()
    pairs = [1 << index[u] | 1 << index[v] for u, v in g.double_edges()]
    nodes = 0

    def visit(kk: int, alive: int, banned: int, carried: list[int],
              piece: int) -> tuple[list[int], list[int]] | None:
        """One search node: None when the alive graph is clean, else its
        bad components and the unbanned candidates to branch on (none when
        the node is closed).  ``carried`` are the node's bad components
        outside ``piece``, the part of ``alive`` still to recognize."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(
                f"exact search exceeded {node_limit} nodes")
        live = [m for m in pairs if m & alive == m]
        dirty = 0
        for m in live:
            dirty |= m
        bad = carried + rec.bad_components(adjm, dirty, piece,
                                           kk + 1 - len(carried))
        if not bad:
            return None
        if len(bad) > kk:  # more bad components than deletions left
            return bad, []
        bad.sort(key=lambda c: c & -c)
        if live:
            cands = bits(live[0])
        elif (len(bad) < kk
              or (cands := rec.tight_candidates(adjm, bad[0])) is None):
            obs = rec.witness(adjm, bad[0])
            # a claw plus a triangle: some vertex of the component must go
            cands = (bits(bad[0]) if obs.kind == "claw+triangle"
                     else sorted(obs.vertices))
        return bad, [v for v in cands if not (banned >> v) & 1]

    # Depth-first over an explicit stack, so the depth is not bounded by
    # the recursion limit.  An open node is [kk, alive, banned, untried
    # candidates, vertex on trial, bad components]; a clean node solves
    # every open node through its vertex on trial.
    stack: list[list] = []
    full = (1 << len(ids)) - 1
    carried = [id_mask(index, comp) for comp in judged]
    kk, alive, banned, piece = k, full, 0, full & ~sum(carried)
    while (node := visit(kk, alive, banned, carried, piece)) is not None:
        bad, cands = node
        stack.append([kk, alive, banned, iter(cands), None, bad])
        while stack:
            top = stack[-1]
            if top[4] is not None:
                top[2] |= 1 << top[4]  # its subtree failed: ban it
            if (v := next(top[3], None)) is not None:
                break
            stack.pop()
        if not stack:
            return None
        top[4] = v
        kk, alive, banned = top[0] - 1, top[1] & ~(1 << v), top[2]
        carried = [c for c in top[5] if not (c >> v) & 1]
        piece = next(c for c in top[5] if (c >> v) & 1) & ~(1 << v)

    out = sorted(ids[top[4]] for top in stack)
    if len(out) > k:
        raise AssertionError("solver exceeded its deletion budget")
    ok, _ = rec.is_pitg(g, set(ids).difference(out))
    if not ok:
        raise AssertionError("solver returned an invalid deletion set")
    return out
