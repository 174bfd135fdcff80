"""Target-class recognition with certifying obstructions.

A multigraph is in the target class when it is simple and every connected
component is a proper interval graph or a tree.  ``is_pitg`` decides this
and, on failure, returns one ``Obstruction(kind, vertices)``:

=================  =====================================================
kind               vertices
=================  =====================================================
``double``         (u, v), a pair joined by parallel edges
``net``            (a, b, c, x, y, z): triangle abc, pendant x at a,
                   y at b, z at c
``tent``           (a, b, c, x, y, z): triangle abc, x on side ab, y on
                   bc, z on ca
``hole``           a chordless cycle on >= 4 vertices, in cyclic order
``claw+triangle``  (center, leg, leg, leg, t, t, t): a claw, then a
                   triangle, in one component that is otherwise chordal
                   and {net, tent, hole}-free; the two may share vertices
=================  =====================================================

Every obstruction except the last must lose a vertex in any valid deletion
set; the pair only certifies that the component as a whole is bad.

A component that is not a tree first gets one linear scan that tries,
at each vertex of degree >= 3, one greedy independent triple of its
neighbours; such a triple is an induced claw, which no proper interval
graph has (Roberts 1969), so most bad components are rejected there.
The rest are recognized by three lexicographic BFS sweeps (the second
and third tie-break toward the vertex placed latest in the previous
sweep) followed by an umbrella-ordering verification of the final sweep;
a component passes the verification exactly when it is a proper
interval graph (Corneil 2004).  The claw scan only ever answers "no"
with an induced claw in hand, so every verdict is the sweeps' verdict.
The witness search on a failed component shares
``backend.lbfs`` with the sweeps: its chordality check reads one more
sweep in reverse as an elimination order, and only a non-chordal
component is searched for holes.  The net, tent, short-hole and claw
scans stay independent of the sweeps.

``obstruction_sets`` lists the small obstructions for the base set.  It
searches them only through a given vertex set that meets every
obstruction (a deletion set), since one that misses it would survive
its deletion: short holes start at its vertices, and the net and tent
scan walks only the triangles with a vertex in its closed neighbourhood,
and of those only the ones on an edge ab where a and b each have a
neighbour the other lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from . import backend as bk
from .backend import bits
from .multigraph import MultiGraph


@dataclass(frozen=True)
class Obstruction:
    """One forbidden structure, by ``kind`` (see the module docstring)."""

    kind: str
    vertices: tuple[int, ...]


# ---------------------------------------------------------------------------
# umbrella orders
# ---------------------------------------------------------------------------

def pig_order(adjm: list[int], comp: int):
    """Umbrella ordering of one connected component, or None.

    Three-sweep LBFS; the final sweep is an umbrella ordering iff the
    component is a proper interval graph, which the last step verifies.
    """
    if comp.bit_count() <= 2:
        return tuple(bits(comp))
    s1 = bk.lbfs(adjm, comp)
    s2 = bk.lbfs(adjm, comp, {v: i for i, v in enumerate(s1)})
    s3 = bk.lbfs(adjm, comp, {v: i for i, v in enumerate(s2)})
    return tuple(s3) if bk.umbrella_ok(adjm, s3) else None


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _bfs_path(adjm, allowed: int, x: int, y: int):
    """Shortest x-y path inside ``allowed`` as a vertex list, or None."""
    if not ((allowed >> x) & 1 and (allowed >> y) & 1):
        return None
    parent = {x: -1}
    frontier = 1 << x
    seen = 1 << x
    while frontier and not (seen >> y) & 1:
        nxt = 0
        for v in bits(frontier):
            new = adjm[v] & allowed & ~seen & ~nxt
            for u in bits(new):
                parent[u] = v
            nxt |= new
        seen |= nxt
        frontier = nxt
    if not (seen >> y) & 1:
        return None
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def find_hole(adjm: list[int], comp: int, seed=None):
    """A chordless cycle through some vertex of ``comp``, or None.

    For each candidate (v, x, y) with x, y nonadjacent neighbors of v, a
    shortest x-y path avoiding the rest of N[v] closes into a hole through
    v; every hole of the graph is discoverable this way, so a non-chordal
    component always yields one.  ``seed`` is an optional (v, x, y) triple
    tried first (e.g. from the chordality check).
    """

    def candidates():
        if seed is not None:
            yield seed
        for v in bits(comp):
            nbv = adjm[v] & comp
            for x in bits(nbv):
                for y in bits(nbv & ~adjm[x] & ~((1 << (x + 1)) - 1)):
                    yield (v, x, y)

    for v, x, y in candidates():
        avoid = (adjm[v] | (1 << v)) & ~(1 << x) & ~(1 << y)
        path = _bfs_path(adjm, comp & ~avoid, x, y)
        if path is not None:
            return (v, *path)
    return None


def witness(adjm: list[int], comp: int) -> Obstruction | None:
    """Preferred obstruction of one component in positions, or None when
    the component is clean.

    Preference: net, tent, short hole (<= 6), any hole, claw+triangle.
    """
    for kind, t in bk.net_tent_witnesses(adjm, comp, False):
        return Obstruction(kind, t)
    fail = bk.chordal_fail(adjm, comp)
    if fail is not None:  # only a non-chordal component has a hole
        short = bk.small_cycles(adjm, comp, comp, False)
        if short:
            return Obstruction("hole", short[0])
        hole = find_hole(adjm, comp, seed=fail)
        if hole is None:  # pragma: no cover - contradicts chordality failure
            raise AssertionError("non-chordal component without a hole")
        return Obstruction("hole", hole)
    claw = bk.find_claw(adjm, comp)
    tri = bk.find_triangle(adjm, comp)
    if claw is None or tri is None:
        return None
    return Obstruction("claw+triangle", claw + tri)


def _tree_or_pig(adjm: list[int], comp: int) -> bool:
    """Is the connected simple component ``comp`` a tree or a proper
    interval graph?

    One pass over the neighbourhoods sums the degrees for the tree test
    and, at each vertex c of degree >= 3, tries one independent triple
    greedily: the lowest neighbour a, the lowest neighbour b not adjacent
    to a, then any neighbour adjacent to neither.  Such a triple is an
    induced claw, and a proper interval graph is claw-free (Roberts 1969),
    so a non-tree with one is rejected without a sweep.  Every other
    non-tree, a claw the greedy try missed included, goes to
    ``pig_order``, so the answer is exactly the sweeps' answer.
    """
    degrees = 0
    claw = False
    for c in bits(comp):
        nb = adjm[c] & comp
        d = nb.bit_count()
        degrees += d
        if d >= 3 and not claw:
            a = nb & -nb
            rest = nb & ~adjm[a.bit_length() - 1] & ~a
            if rest:
                b = rest & -rest
                claw = bool(rest & ~adjm[b.bit_length() - 1] & ~b)
    if degrees == 2 * (comp.bit_count() - 1):
        return True  # connected with n-1 edges: a tree
    return not claw and pig_order(adjm, comp) is not None


def bad_components(adjm: list[int], dirty: int, mask: int,
                   stop: int) -> list[int]:
    """The first ``stop`` bad components of ``mask`` by lowest position:
    those that meet ``dirty`` (the ends of parallel edges) or are neither
    a tree nor a proper interval graph."""
    bad: list[int] = []
    for comp in bk.comp_masks(adjm, mask):
        if comp & dirty or not _tree_or_pig(adjm, comp):
            bad.append(comp)
            if len(bad) == stop:
                break
    return bad


def is_pitg(g: MultiGraph, vs: Collection[int] | None = None
            ) -> tuple[bool, Obstruction | None]:
    """Decide membership in the target class; certify failure.

    Answers for the subgraph induced on ``vs`` (default: the whole graph)
    without copying it.  Returns ``(True, None)`` or ``(False,
    obstruction)`` with the obstruction stated in stable vertex ids.
    Preference order: double edge, then in the first bad component: net,
    tent, short hole, any hole, claw+triangle.
    """
    doubles = g.double_edges(vs)
    if doubles:
        return False, Obstruction("double", doubles[0])
    ids, _, adjm = g.compact(vs)
    bad = bad_components(adjm, 0, (1 << len(ids)) - 1, 1)
    if not bad:
        return True, None
    obs = witness(adjm, bad[0])
    return False, Obstruction(obs.kind, tuple(ids[p] for p in obs.vertices))


def component_clean(g: MultiGraph, comp: list[int]) -> bool:
    """Is the induced component simple and a proper interval graph or tree?"""
    if g.double_edges(comp):
        return False
    ids, _, adjm = g.compact(comp)
    return _tree_or_pig(adjm, (1 << len(ids)) - 1)


def obstruction_sets(g: MultiGraph, anchors: Collection[int]
                     ) -> list[tuple[str, frozenset[int]]]:
    """All nets, tents and short holes (4-6) of the underlying simple graph,
    given vertex ids ``anchors`` that meet every one of them.

    Returned as (kind, vertex-id set) pairs in deterministic order; the
    modulator construction feeds these to the set-family reductions.  Both
    scans are searched only through the anchors: the short holes start at
    them (``backend.small_cycles``), and the net and tent scan walks only
    the triangles with a vertex in N[anchors]
    (``backend.net_tent_witnesses``), so an obstruction that misses them
    is not listed.  Any deletion set leaves no obstruction behind, so it
    is a valid ``anchors``.
    """
    ids, index, adjm = g.compact()
    full = (1 << len(ids)) - 1
    roots = 0
    for v in anchors:
        roots |= 1 << index[v]
    out: list[tuple[str, frozenset[int]]] = []
    for kind, t in bk.net_tent_witnesses(adjm, full, True, roots):
        out.append((kind, frozenset(ids[p] for p in t)))
    for cyc in bk.small_cycles(adjm, full, roots, True):
        out.append(("hole", frozenset(ids[p] for p in cyc)))
    return out
