"""Exact decision of the deletion problem by bounded branching.

``decide(G, k)`` finds a deletion set of size at most k whose removal
leaves a simple graph with every component a proper interval graph or a
tree, or proves none exists.  Branching is driven by the certifying
recognizer: parallel edges, nets, tents and holes must each lose one of
their own vertices, giving a bounded branch; a component rejected only for
hosting both a claw and a triangle must lose *some* vertex, so the branch
ranges over that component.  Memoization collapses permutations of the
same deletions.

One lower bound prunes the search.  A component of G - gone that is bad
(a parallel edge, or neither a tree nor a proper interval graph) stays a
component, and stays bad, unless one of its own vertices is deleted; so a
node with more bad components than deletions left holds no solution.
Such a node is closed on the spot, before any witness is searched for:
the recognizer counts bad components only up to the budget plus one.
The bound cuts only subtrees without a solution, and the branching order
is otherwise unchanged, so the search still returns the first solution
that the unpruned depth-first search finds.  A no-instance with more bad
components than k is decided at the root.

The state of a search node is its deleted set alone: every recognition
runs in place on the vertices still alive, so no node copies the graph.

This is exponential and guarded by an explicit node budget; it serves as
the bootstrap for the modulator and as the correctness oracle for the
reduction pipeline, not as a general-purpose solver.
"""

from __future__ import annotations

from . import recognition as rec
from .multigraph import MultiGraph

DEFAULT_NODE_LIMIT = 400_000


class SearchLimitExceeded(RuntimeError):
    """The branching search outgrew its node budget; no verdict."""


def decide(g: MultiGraph, k: int,
           node_limit: int = DEFAULT_NODE_LIMIT) -> list[int] | None:
    """A deletion set of size <= k (sorted ids), or None if none exists."""
    if k < 0:
        return None
    verts = frozenset(g.vertices)
    memo: dict = {}
    nodes = 0

    def visit(kk: int, gone: frozenset[int]):
        """One search node: ``(solution, None)`` when it is settled on the
        spot, ``(None, candidates)`` when it must branch."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(
                f"exact search exceeded {node_limit} nodes")
        key = (gone, kk)
        if key in memo:
            return memo[key], None
        alive = verts - gone
        ok, obs = rec.is_pitg(g, alive, kk)
        if ok:
            return [], None
        if obs is None:  # more bad components than deletions left
            memo[key] = None
            return None, None
        if isinstance(obs, rec.ClawTrianglePair):
            # the whole component is bad; some vertex of it must go
            return None, g.component_of(obs.claw[0], alive)
        return None, sorted(set(obs.vertices))

    # Depth-first over an explicit stack of open nodes, so the depth is
    # not bounded by the recursion limit.  Each open node is
    # [kk, gone, untried candidates, vertex on trial].  A solved node
    # solves every open node through its vertex on trial; a node whose
    # candidates all fail is memoized as None, and its parent moves on
    # to its next candidate.
    stack: list[list] = []
    kk, gone = k, frozenset()
    while True:
        out, cands = visit(kk, gone)
        if cands is not None:
            stack.append([kk, gone, iter(cands), None])
        elif out is not None:
            while stack:
                kk, gone, _, v = stack.pop()
                out = sorted([v, *out])
                memo[(gone, kk)] = out
            break
        while stack and (v := next(stack[-1][2], None)) is None:
            kk, gone, _, _ = stack.pop()
            memo[(gone, kk)] = None
        if not stack:
            break
        stack[-1][3] = v
        kk, gone = stack[-1][0] - 1, stack[-1][1] | {v}

    if out is not None:
        if len(out) > k:
            raise AssertionError("solver exceeded its deletion budget")
        ok, _ = rec.is_pitg(g, verts.difference(out))
        if not ok:
            raise AssertionError("solver returned an invalid deletion set")
    return out
