"""Base set and the strata of the tree side.

The kernel pipeline works relative to a *base set* S: a vertex set whose
removal leaves a simple graph where every component is a proper interval
graph or a tree.  S is assembled from two halves: the union of a
sunflower-reduced family of small obstructions (parallel pairs, short
holes, nets, tents) and a bootstrap solution B found by the exact search,
or by the greedy fallback when the search outgrows its budget.  G - B is
clean, so every small obstruction meets B, and the short holes, nets
and tents are searched only through B.  When the exact search certifies
that no solution within the budget exists, the whole instance is already
decided.

Relative to S, the leftover graph splits into

* ``v1`` - vertices of components that contain a cycle, and
* ``v2`` - vertices of tree components,

and the tree side refines further into strata that the later rules need:
the S-neighbors ``f1``, the connectors ``f3`` (vertices on a path between
two distinct S-neighbors inside their tree), the branch points
``f3_critical``, and the hooks - degree-2 connectors carrying pendant
subtrees ("hangers").  Along each chain of connectors between two branch
points or S-neighbors, only the outermost hooks are *good*; the hangers
of the remaining *bad* hooks are deletable.

G - S is analysed once, without copying it, and the result holds
everything the base-set rules read: the clique path of each cyclic
component (``paths``), the flower of each base vertex into the tree side
with its cover Z_v (``flowers``), and the strata.  One bitmask view of
G - S, its positions ascending with vertex id, lists the components in
min-id order, tells the trees (n - 1 edges) from the cyclic components
and finds a triangle in each cyclic one.  Two leaf-stripping passes
(:meth:`MultiGraph.hanging_trees`) over the whole tree side, whatever
the number of trees, give the rest: the first keeps the S-neighbors,
leaves the connectors and hands over the hangers; the second strips the
chains of non-critical connectors down to their hooks and so tells the
good hooks from the bad.  The flowers check that the tree side is a
forest as they walk it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection

from . import backend
from .cliques import CliquePath, clique_path
from .combinatorics import Flower, flower_in_forest, sunflower_reduce
from .exact import DEFAULT_NODE_LIMIT, SearchLimitExceeded, decide
from .multigraph import MultiGraph
from .recognition import is_pitg, obstruction_sets

#: largest vertex count of the obstructions handled by the sunflower step
SMALL_OBSTRUCTION_ARITY = 6


def small_obstruction_family(g: MultiGraph,
                             anchors: Collection[int]) -> list[frozenset[int]]:
    """Vertex sets of all obstructions on at most six vertices, given a
    deletion set ``anchors`` that meets every one of them.

    Parallel edges contribute their endpoint pairs; the rest (holes of
    length 4-6, nets, tents) come from the witness scan of the underlying
    simple graph, which searches only through the anchors: the holes
    start at them, and the nets and tents are found from the triangles
    with a vertex in N[anchors].  Larger
    holes and claw-plus-triangle components are deliberately absent: the
    structural rules handle those.
    """
    fam = [frozenset(e) for e in g.double_edges()]
    fam.extend(vs for _, vs in obstruction_sets(g, anchors))
    return fam


def greedy_modulator(g: MultiGraph) -> set[int]:
    """Hitting set built by deleting whole witnesses until clean.

    Fallback for instances where the exact search is too slow.  The result
    leaves a valid graph behind but carries no size guarantee.
    """
    alive = set(g.vertices)
    out: set[int] = set()
    while True:
        ok, obs = is_pitg(g, alive)
        if ok:
            return out
        vs = set(obs.vertices)
        out |= vs
        alive -= vs


def compute_base_set(g: MultiGraph, k: int,
                     node_limit: int = DEFAULT_NODE_LIMIT):
    """Return ``(S, used_fallback)``, or ``(None, False)`` when the exact
    search certifies that no solution of size <= k exists.

    ``used_fallback`` is set when the bootstrap half came from the greedy
    witness deletion instead of the exact search; the size bound is then
    not guaranteed (the reductions stay safe regardless).  Both halves
    leave a clean graph, so S does too; :func:`classify_tree_side` is
    where that is checked.
    """
    fallback = False
    try:
        boot = decide(g, k, node_limit)
    except SearchLimitExceeded:
        boot = sorted(greedy_modulator(g))
        fallback = True
    else:
        if boot is None:  # decided no: the obstructions need no enumeration
            return None, False
    s: set[int] = set(boot)
    for petal in sunflower_reduce(small_obstruction_family(g, boot), k):
        s |= petal
    if not fallback:
        arity = SMALL_OBSTRUCTION_ARITY
        cap = arity * math.factorial(arity) * (k + 1) ** arity + 7 * k
        if len(s) > cap:
            raise AssertionError(f"base set of {len(s)} exceeds its cap {cap}")
    return s, fallback


@dataclass(frozen=True)
class Modulator:
    """Base set plus the derived strata of the current graph."""

    s: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]
    f1: frozenset[int]
    f3: frozenset[int]
    f3_critical: frozenset[int]
    good_hooks: frozenset[int]
    bad_hooks: frozenset[int]
    #: hook vertex -> its pendant subtrees, each disjoint from the connectors
    hangers: dict[int, tuple[frozenset[int], ...]] = field(default_factory=dict)
    #: clique path of each cyclic component, ordered by minimum id
    paths: tuple[CliquePath, ...] = ()
    #: base vertex -> its flower into the tree side, cover Z_v included
    flowers: dict[int, Flower] = field(default_factory=dict)

    @property
    def hooks(self) -> frozenset[int]:
        return self.good_hooks | self.bad_hooks


def classify_tree_side(g: MultiGraph, s) -> Modulator:
    """Compute all strata of ``g`` relative to the base set ``s``.

    Raises ``ValueError`` if removing ``s`` does not leave a clean graph:
    a parallel edge, or a cyclic component that is not a proper interval
    graph (its clique path cannot be built).  No witness is searched for,
    G - S is never copied, and the tree side takes two leaf-stripping
    passes however many trees it has (see the module docstring).
    """
    s = frozenset(s)
    rest = [v for v in g.vertices if v not in s]
    doubles = g.double_edges(rest)
    if doubles:
        raise ValueError(f"base set leaves the parallel edge {doubles[0]}")

    v1: set[int] = set()
    v2: set[int] = set()
    paths: list[CliquePath] = []
    ids, _, adjm = g.compact(rest)
    for mask in backend.comp_masks(adjm, (1 << len(ids)) - 1):
        comp = [ids[p] for p in backend.bits(mask)]
        if backend.count_edges(adjm, mask) == len(comp) - 1:
            v2.update(comp)
            continue
        paths.append(clique_path(g, comp))
        v1.update(comp)
        if backend.find_triangle(adjm, mask) is None:
            raise AssertionError("cyclic clean component without a triangle")

    # Stripping the leaves outside f1 is local to each tree: a tree with
    # two or more S-neighbors keeps the minimal subtree spanning them, one
    # with a single S-neighbor keeps it, and one with none keeps a lone
    # vertex.  The connectors are the survivors outside f1 that kept a
    # neighbor.  Each stripped piece hangs by one plain edge wu; the
    # pieces below a degree-2 connector w are its hangers, ordered by u.
    f1 = {u for u in v2 if any(w in s for w in g.neighbors(u))}
    hung = g.hanging_trees(v2, keep=f1)
    alive = v2.difference(u for _, u, _ in hung)
    sdeg = {u: sum(1 for w in g.neighbors(u) if w in alive) for u in alive}
    f3 = {u for u in alive - f1 if sdeg[u] > 0}
    f3c = {u for u in f3 if sdeg[u] >= 3}
    chains = f3 - f3c
    if any(sdeg[w] != 2 for w in chains):
        raise AssertionError("connector chains must have degree 2")
    if len(f3c) > len(f1):
        raise AssertionError("branch points cannot outnumber S-neighbors")
    hangers: dict[int, tuple[frozenset[int], ...]] = {}
    for w, u, tree in sorted(hung, key=lambda t: t[:2]):
        if w in chains:
            hangers[w] = hangers.get(w, ()) + (frozenset(tree),)

    # The non-critical connectors form disjoint paths, the chains between
    # two anchors (S-neighbors or branch points).  Stripping a chain down
    # to its hooks leaves the stretch from its first hook to its last;
    # only the two ends of that stretch keep their hangers.
    stripped = g.hanging_trees(chains, keep=hangers)
    stretch = chains.difference(u for _, u, _ in stripped)
    bad = {w for w in hangers
           if sum(1 for u in g.neighbors(w) if u in stretch) == 2}
    good = set(hangers) - bad
    return Modulator(s=s, v1=frozenset(v1), v2=frozenset(v2),
                     f1=frozenset(f1), f3=frozenset(f3),
                     f3_critical=frozenset(f3c),
                     good_hooks=frozenset(good), bad_hooks=frozenset(bad),
                     hangers=hangers, paths=tuple(paths),
                     flowers={v: flower_in_forest(g, v, v2)
                              for v in sorted(s)})

