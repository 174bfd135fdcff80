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
The rest get one lexicographic BFS sweep and an umbrella-ordering
check of it on its prefix masks; a sweep that passes proves a proper
interval graph (Looges and Olariu 1993), and it is the order the full
three sweeps would return (see ``pig_order``).  Only a component whose
first sweep fails gets the second and third sweeps (each tie-breaking
toward the vertex placed latest in the previous sweep, found on its
prefix masks) and the check of the final sweep; a component passes that
check exactly when it is a proper interval graph (Corneil 2004).  The
claw scan only ever answers "no" with an induced claw in hand, so every
verdict is the sweeps' verdict.  The witness search on a failed
component shares ``backend.lbfs`` with the sweeps: its chordality check
reads one more sweep in reverse as an elimination order, only a
non-chordal component is searched for holes, and the triple that fails
the check closes a hole by itself (``find_hole``).  The net, tent,
short-hole and claw scans stay independent of the sweeps.  Both
shortest paths, the one that closes that hole and the one from a claw
to a triangle (``claw_triangle_span``), come from one walk,
``backend.shortest_path``.

``witness`` has one preference order: net, tent, short hole, any hole,
claw+triangle.  It serves ``is_pitg``, and through it the greedy
modulator and the closing validation of the exact search, and the exact
search's nodes that have deletions to spare.  A tight node of the exact
search (as many bad components as deletions left) asks
``tight_candidates`` for its branching set instead: the hole the
chordality check closes, cut down to a connected claw-and-triangle span
H (``claw_triangle_span``) when it is longer than 6, or on a chordal
component the first net or tent, else V(H).  Any such set leads to the
same first solution (see ``exact``), and it skips the short-hole DFS
everywhere and the net and tent scan on every non-chordal component.

``is_pitg`` and ``obstruction_sets`` read the graph's kept bitmask view
(``MultiGraph.view``) and take a vertex subset as a mask over it, so the
exact search, its closing validation and the obstruction scan of one
graph state share one compaction.  ``component_clean``, which rule 1
asks after every edit, compacts its component on its own instead.

``obstruction_sets`` lists the small obstructions for the base set.  It
searches them only through a given vertex set that meets every
obstruction (a deletion set), since one that misses it would survive
its deletion: short holes start at its vertices, and the net and tent
scan walks only the triangles with a vertex in its closed neighbourhood,
and of those only the ones on an edge ab where a and b each have a
neighbour the other lacks.  Both scans also stop where a mask shows
that nothing can be found: the hole DFS leaves a branch once no vertex
can close its cycle, and the net and tent scan starts a triple search
only on a triangle whose three candidate sets are all nonempty.  The
same cuts serve ``witness`` and ``tight_candidates`` in the exact search.
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
    component is a proper interval graph, which the last step verifies
    (Corneil 2004).  A first sweep that is already an umbrella ordering
    proves the answer by itself (Looges and Olariu 1993) and is returned
    at once: it is the order the other two sweeps would end on.  Write
    sigma_1..sigma_n for it and r(j) for the last position in the closed
    neighbourhood of sigma_j.  Every closed neighbourhood is a run of
    sigma, so r is nondecreasing.  Once the tie-breaking sweep has
    visited sigma_n, ..., sigma_(n-t+1), each unvisited sigma_j is
    labelled with the visit times n-r(j)+1..t, or with nothing, so the
    first slice holds the unvisited vertices of largest r; sigma_(n-t) is
    among them and wins the tie as the latest in sigma.  The second
    sweep is sigma reversed, and by the same argument the third is
    sigma.  Only a component whose first sweep fails the check pays for
    the second and third.
    """
    s1 = bk.lbfs(adjm, comp)
    if bk.umbrella_ok(adjm, s1):
        return tuple(s1)
    s2 = bk.lbfs(adjm, comp, s1)
    s3 = bk.lbfs(adjm, comp, s2)
    return tuple(s3) if bk.umbrella_ok(adjm, s3) else None


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def find_hole(adjm: list[int], comp: int, seed) -> tuple[int, ...]:
    """The chordless cycle that ``seed`` closes.

    ``seed`` is the triple (v, x, y) of ``backend.chordal_fail``: x and y
    are nonadjacent neighbours of v, both before v in an LBFS order
    sigma of ``comp``, and y before x.  A shortest x-y path avoiding the
    rest of N[v] is induced and its interior misses N[v], so with v it
    closes a hole, found by ``backend.shortest_path`` from x.

    Such a path exists.  Let a < b < c in sigma, with ac an edge and ab
    not, and let d be the first vertex before b that sees exactly one of
    b and c.  As b was chosen while c waited, b's label was at least
    c's, and a is in c's label only, so d comes before a and sees b, not
    c (the 4-point property of LBFS).  By induction on a's position, a
    and b are joined by a path whose interior lies before a and outside
    N(c): if da is an edge, take a, d, b.  If not, (d, a, b) is such a
    triple with an earlier first vertex, so d and a are joined by a path
    whose interior lies before d and outside N(b), hence outside N(c),
    since the vertices before d see b exactly when they see c; d closes
    it to b.  The triple (y, x, v) gives the x-y path outside N[v], so a
    seed from a failed chordality check always closes a hole.
    """
    v, x, y = seed
    allowed = (comp & ~adjm[v] & ~(1 << v)) | (1 << x) | (1 << y)
    path = bk.shortest_path(adjm, 1 << x, 1 << y, allowed)
    if not path:  # pragma: no cover - contradicts the proof above
        raise AssertionError("a chordality failure closed no hole")
    return (v, *reversed(path))


def witness(adjm: list[int], comp: int) -> Obstruction | None:
    """Preferred obstruction of one component in positions, or None when
    the component is clean.

    Preference: net, tent, short hole (<= 6), any hole, claw+triangle.
    ``is_pitg``, and through it the greedy modulator and the exact
    search's closing validation, keep this order, and so do the exact
    search's nodes that have deletions to spare or where
    ``tight_candidates`` gives no answer.
    """
    found = bk.net_tent_witnesses(adjm, comp, False)
    if found:
        return Obstruction(*found[0])
    fail = bk.chordal_fail(adjm, comp)
    if fail is None:
        claw = bk.find_claw(adjm, comp)
        tri = bk.find_triangle(adjm, comp)
        if claw is None or tri is None:
            return None
        return Obstruction("claw+triangle", claw + tri)
    # only a non-chordal component has a hole
    short = bk.small_cycles(adjm, comp, comp, False)
    return Obstruction("hole", short[0] if short
                       else find_hole(adjm, comp, fail))


def claw_triangle_span(adjm: list[int], comp: int) -> int:
    """H as a mask: the first induced claw of the connected ``comp``, its
    first triangle and a shortest path from the claw to the triangle; 0
    when ``comp`` has no induced claw or no triangle.

    H is connected and holds an induced claw and a triangle, so every
    graph that keeps all of H has a component that is neither a proper
    interval graph (Roberts 1969: those are claw-free) nor a tree: every
    deletion set that cleans ``comp`` meets H.  The path is
    ``backend.shortest_path`` from the claw's four vertices to the
    triangle.
    """
    claw = bk.find_claw(adjm, comp)
    tri = claw and bk.find_triangle(adjm, comp)
    if not tri:
        return 0
    legs = sum(1 << v for v in claw)
    ends = sum(1 << v for v in tri)
    path = bk.shortest_path(adjm, legs, ends, comp)
    return legs | ends | sum(1 << v for v in path)


def tight_candidates(adjm: list[int], comp: int) -> list[int] | None:
    """The vertices, ascending, that a tight exact-search node branches
    on in its first bad component ``comp`` (simple, connected, neither
    a tree nor a proper interval graph), or None when the node should
    branch on ``witness`` instead.

    Each answer holds every v for which ``comp`` - v is clean (see
    ``exact``): such a v lies on every net, tent and hole of ``comp``,
    and on H (``claw_triangle_span``).  A non-chordal component gives
    the hole that the failing triple of its chordality check closes
    (``find_hole``), whole when it has at most 6 vertices and otherwise
    cut down to H; with no claw-and-triangle span the long hole is left
    to ``witness``, which may find a shorter one.  A chordal component
    gives its first net or tent, or else V(H): chordal, {net,
    tent}-free and not a proper interval graph means an induced claw,
    and chordal and not a tree means a triangle.  The whole-component
    short-hole DFS runs nowhere here, and the net and tent scan only on
    a chordal component.

    The None return is load-bearing.  Branching on the whole long hole
    instead keeps every first solution but grows the no-searches on the
    rings of gadgets in ``tests/test_exact.py``: the hole rings of 3 and
    5 gadgets visit 93 and 2,931 nodes where ``witness`` keeps them to at
    most 43 and 1,555, and the tent rings of 3, 4 and 5 visit 70, 324
    and 1,448 against 38, 198 and 1,024.
    """
    fail = bk.chordal_fail(adjm, comp)
    if fail is not None:
        hole = sorted(find_hole(adjm, comp, fail))
        if len(hole) <= 6:
            return hole
        span = claw_triangle_span(adjm, comp)
        return [v for v in hole if (span >> v) & 1] if span else None
    found = bk.net_tent_witnesses(adjm, comp, False)
    if found:
        return sorted(found[0][1])
    span = claw_triangle_span(adjm, comp)
    if not span:  # pragma: no cover - contradicts the characterization
        raise AssertionError("a bad chordal component without an obstruction")
    return list(bits(span))


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
    without copying it: ``vs`` is read as a mask over the graph's kept
    :meth:`~MultiGraph.view`.  Returns ``(True, None)`` or ``(False,
    obstruction)`` with the obstruction stated in stable vertex ids.
    Preference order: double edge, then in the first bad component: net,
    tent, short hole, any hole, claw+triangle.
    """
    doubles = g.double_edges(vs)
    if doubles:
        return False, Obstruction("double", doubles[0])
    ids, index, adjm = g.view()
    mask = (1 << len(ids)) - 1 if vs is None else bk.id_mask(index, vs)
    bad = bad_components(adjm, 0, mask, 1)
    if not bad:
        return True, None
    obs = witness(adjm, bad[0])
    return False, Obstruction(obs.kind, tuple(ids[p] for p in obs.vertices))


def component_clean(g: MultiGraph, comp: list[int]) -> bool:
    """Is the induced component simple and a proper interval graph or tree?

    Rule 1 asks after every edit but a pendant trim (rules 4, 6 and 7,
    after which the driver resumes at rule 4), so the component is
    compacted on its own rather than read from the whole-graph view,
    which each edit drops.
    """
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
    ids, index, adjm = g.view()
    full = (1 << len(ids)) - 1
    roots = bk.id_mask(index, anchors)
    out: list[tuple[str, frozenset[int]]] = []
    for kind, t in bk.net_tent_witnesses(adjm, full, True, roots):
        out.append((kind, frozenset(ids[p] for p in t)))
    for cyc in bk.small_cycles(adjm, full, roots, True):
        out.append(("hole", frozenset(ids[p] for p in cyc)))
    return out
