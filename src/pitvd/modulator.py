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
component (``paths``), the flower of each base vertex into the tree
side with its cover Z_v (``flowers``, walked on first read), and the
strata.  G - S is read as a mask over the graph's kept bitmask view
(:meth:`MultiGraph.view`), the one the exact bootstrap and the
obstruction scan read before it.  Its positions ascend with vertex id,
so the view lists the components in min-id order, tells the trees
(n - 1 edges) from the cyclic components and finds a triangle in each
cyclic one; only the clique path of a cyclic component compacts that
component again, on its own.  Two leaf-stripping passes
(:meth:`MultiGraph.hanging_trees`) over the whole tree side, whatever
the number of trees, give the rest.  Each returns one map from the
vertices it leaves to the maximal trees hung from them.  The first
keeps the S-neighbors: its keys are the survivors, whose degrees among
themselves give the connectors, and the trees at the degree-2
connectors are the hangers.  The second strips the chains of
non-critical connectors down to their hooks, and its keys, the stretch
between each chain's outermost hooks, tell the good hooks from the bad.
Each base vertex's flower walks only the trees that hold one of its
neighbours, found from that neighbourhood in the view; the other trees
hold no petal and no vertex of its cover.  The flowers are walked when
first read, for the graph state the strata describe, so strata that
rule 8 fires on never walk them; a read after an edit raises
``AssertionError``.

A ``Modulator`` holds its base set and the graph version its strata
describe, which is all the driver needs to decide whether to reuse
them.  Rule 8 deletes the hangers of the bad hooks and nothing else.
The strata after it are the ones it read, less those hangers, stamped
with the new version (:meth:`Modulator.without_bad_hangers`), so the
driver keeps them instead of classifying G - S again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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


def base_set_cap(k: int) -> int:
    """The most vertices an exact base set for budget k may hold:
    d * d! * (k+1)^d for a sunflower-reduced family of at most
    d! * (k+1)^d obstructions of at most d = ``SMALL_OBSTRUCTION_ARITY``
    vertices each, plus 7k for the bootstrap half.
    :func:`compute_base_set` asserts it, and the audit checks a base set
    carried by a kernel against it."""
    d = SMALL_OBSTRUCTION_ARITY
    return d * math.factorial(d) * (k + 1) ** d + 7 * k


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
    if not fallback and len(s) > base_set_cap(k):
        raise AssertionError(
            f"base set of {len(s)} exceeds its cap {base_set_cap(k)}")
    return s, fallback


@dataclass(frozen=True)
class Modulator:
    """Base set plus the derived strata of ``graph`` as it stood when
    they were made."""

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
    #: the graph the strata describe, and its version when they were made
    graph: MultiGraph = field(kw_only=True, compare=False, repr=False)
    version: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "version", self.graph.version)

    @property
    def hooks(self) -> frozenset[int]:
        return self.good_hooks | self.bad_hooks

    @property
    def bad_hangers(self) -> frozenset[int]:
        """The vertices of the hangers of every bad hook: rule 8's drop."""
        return frozenset(u for w in self.bad_hooks
                         for c in self.hangers[w] for u in c)

    @cached_property
    def flowers(self) -> dict[int, Flower]:
        """Base vertex -> its flower into the tree side, cover Z_v
        included, in ascending order of base vertex.

        Walked on first read, over the trees that hold a neighbour of
        the base vertex, and kept as a plain dict.  The graph must not
        have changed since the strata were made.
        """
        g = self.graph
        if g.version != self.version:
            raise AssertionError("the graph changed since its strata "
                                 "were made")
        ids, index, adjm = g.view()
        trees = backend.id_mask(index, self.v2)
        flowers = {}
        for v in sorted(self.s):
            touched = backend.reach(adjm, adjm[index[v]] & trees, trees)
            flowers[v] = flower_in_forest(
                g, v, [ids[p] for p in backend.bits(touched)])
        return flowers

    def without_bad_hangers(self) -> "Modulator":
        """The strata of :attr:`graph` after rule 8 deleted
        :attr:`bad_hangers` from it in place, and nothing else; stamped
        with the graph's new version.

        Each hanger is a tree stripped off the tree side, never one of
        the kept S-neighbours, so it is a pendant tree of G hung from its
        hook; none holds a vertex of S, V1, F1 or F3.  Deleting them
        keeps every survivor of the first stripping pass and its degree
        among them, so the connectors, branch points and chains stand.
        The good hooks keep their hangers, and in each chain they were
        the outermost hooks, so the stretch between them stands and no
        hook is bad any more.  So V2 loses the hangers, the bad hooks
        drop out of ``hangers``, and nothing else changes but the
        flowers.  Those are walked afresh on the new graph, not carried:
        a walk starts at the least vertex of a tree, which may have been
        in a hanger.
        """
        return replace(self, v2=self.v2 - self.bad_hangers,
                       bad_hooks=frozenset(),
                       hangers={w: h for w, h in self.hangers.items()
                                if w not in self.bad_hooks})


def classify_tree_side(g: MultiGraph, s) -> Modulator:
    """Compute all strata of ``g`` relative to the base set ``s``.

    Raises ``ValueError`` if removing ``s`` does not leave a clean graph:
    a parallel edge, or a cyclic component that is not a proper interval
    graph (its clique path cannot be built).  No witness is searched for,
    G - S is never copied, and the tree side takes two leaf-stripping
    passes however many trees it has (see the module docstring).
    """
    s = frozenset(s)
    doubles = [e for e in g.double_edges() if s.isdisjoint(e)]
    if doubles:
        raise ValueError(f"base set leaves the parallel edge {doubles[0]}")

    v1: set[int] = set()
    v2: set[int] = set()
    paths: list[CliquePath] = []
    ids, index, adjm = g.view()
    rest = ((1 << len(ids)) - 1) & ~backend.id_mask(index, s)
    trees = 0  # the tree side, as a mask
    for mask in backend.comp_masks(adjm, rest):
        comp = [ids[p] for p in backend.bits(mask)]
        if backend.count_edges(adjm, mask) == len(comp) - 1:
            v2.update(comp)
            trees |= mask
            continue
        paths.append(clique_path(g, comp))
        v1.update(comp)
        if backend.find_triangle(adjm, mask) is None:
            raise AssertionError("cyclic clean component without a triangle")

    # Stripping the leaves outside f1 is local to each tree: a tree with
    # two or more S-neighbors keeps the minimal subtree spanning them, one
    # with a single S-neighbor keeps it, and one with none keeps a lone
    # vertex.  The connectors are the survivors outside f1 that kept a
    # neighbor.  Each maximal stripped tree hangs by one plain edge wu;
    # the trees hung from a degree-2 connector w are its hangers, ordered
    # by their roots u.
    near = 0  # N(S)
    for v in s:
        near |= adjm[index[v]]
    f1 = {ids[p] for p in backend.bits(near & trees)}
    hung = g.hanging_trees(v2, keep=f1)
    alive = hung.keys()
    sdeg = {u: sum(1 for w in g.neighbors(u) if w in alive) for u in alive}
    f3 = {u for u in alive - f1 if sdeg[u] > 0}
    f3c = {u for u in f3 if sdeg[u] >= 3}
    chains = f3 - f3c
    if any(sdeg[w] != 2 for w in chains):
        raise AssertionError("connector chains must have degree 2")
    if len(f3c) > len(f1):
        raise AssertionError("branch points cannot outnumber S-neighbors")
    hangers = {w: tuple(map(frozenset, sorted(hung[w])))
               for w in sorted(chains) if hung[w]}

    # The non-critical connectors form disjoint paths, the chains between
    # two anchors (S-neighbors or branch points).  Stripping a chain down
    # to its hooks leaves the stretch from its first hook to its last;
    # only the two ends of that stretch keep their hangers.
    stretch = g.hanging_trees(chains, keep=hangers)
    bad = {w for w in hangers
           if sum(1 for u in g.neighbors(w) if u in stretch) == 2}
    good = set(hangers) - bad
    return Modulator(s=s, v1=frozenset(v1), v2=frozenset(v2),
                     f1=frozenset(f1), f3=frozenset(f3),
                     f3_critical=frozenset(f3c),
                     good_hooks=frozenset(good), bad_hooks=frozenset(bad),
                     hangers=hangers, paths=tuple(paths), graph=g)

