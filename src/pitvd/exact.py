"""Exact decision of the deletion problem by bounded branching.

``decide(G, k)`` finds a deletion set of size at most k whose removal
leaves a simple graph with every component a proper interval graph or a
tree, or proves none exists.  Branching is driven by the certifying
recognizer: parallel edges, nets, tents and holes must each lose one of
their own vertices, giving a bounded branch; a component rejected only for
hosting both a claw and a triangle must lose *some* vertex, so the branch
ranges over that component.  Memoization collapses permutations of the
same deletions.

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

    def rec_solve(kk: int, gone: frozenset[int]):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(
                f"exact search exceeded {node_limit} nodes")
        key = (gone, kk)
        if key in memo:
            return memo[key]
        alive = verts - gone
        ok, obs = rec.is_pitg(g, alive)
        if ok:
            return []
        if kk == 0:
            memo[key] = None
            return None
        if isinstance(obs, rec.ClawTrianglePair):
            # the whole component is bad; some vertex of it must go
            cands = g.component_of(obs.claw[0], alive)
        else:
            cands = sorted(set(obs.vertices))
        sol = None
        for v in cands:
            sub = rec_solve(kk - 1, gone | {v})
            if sub is not None:
                sol = sorted([v, *sub])
                break
        memo[key] = sol
        return sol

    out = rec_solve(k, frozenset())
    if out is not None:
        if len(out) > k:
            raise AssertionError("solver exceeded its deletion budget")
        ok, _ = rec.is_pitg(g, verts.difference(out))
        if not ok:
            raise AssertionError("solver returned an invalid deletion set")
    return out
