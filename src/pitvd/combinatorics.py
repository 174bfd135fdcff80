"""Set-family and packing primitives behind the reduction thresholds.

Three independent tools live here:

* sunflower extraction and the drop-a-petal reduction for bounded-size set
  families (used to shrink the obstruction family while preserving all
  hitting sets of size at most k);
* flowers at a hub vertex whose remaining graph is a forest: a maximum
  packing of cycles through the hub that pairwise share only the hub,
  together with a hub-avoiding hitting set of every such cycle, of size
  equal to the packing (so both are optimal);
* the flow-based q-expansion: given a bipartite adjacency from B into A,
  sets A* and B* such that every vertex of A* gets q private B*-partners,
  no vertex of B* sees A outside A*, and few B-vertices are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .flows import Dinic
from .multigraph import MultiGraph


# ---------------------------------------------------------------------------
# sunflowers
# ---------------------------------------------------------------------------

def _canon(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def find_sunflower(sets, petals: int):
    """A sunflower with ``petals`` petals: (core, petal list), or None.

    Petals are distinct member sets, pairwise disjoint outside the shared
    core (a petal may equal the core).  Greedy disjoint collection either
    succeeds outright or leaves a frequent element to pivot on; recursing
    on the sets through that element lifts a smaller sunflower back up.
    Succeeds whenever the family holds more than d! * (petals - 1)**d sets
    of size at most d.
    """
    family = _canon({frozenset(s) for s in sets})
    if petals <= 0:
        return (frozenset(), [])
    if len(family) < petals:
        return None
    disjoint = []
    used: set = set()
    for s in family:
        if not (s & used):
            disjoint.append(s)
            used |= s
            if len(disjoint) == petals:
                return (frozenset(), disjoint)
    counts: dict = {}
    for s in family:
        for x in s:
            counts[x] = counts.get(x, 0) + 1
    x = min(counts, key=lambda e: (-counts[e], e))
    found = find_sunflower([s - {x} for s in family if x in s], petals)
    if found is None:
        return None
    core, pets = found
    return (core | {x}, [p | {x} for p in pets])


def sunflower_reduce(sets, k: int) -> set[frozenset]:
    """Drop petals of (k+2)-sunflowers until the family is small.

    The result has at most d! * (k+1)**d sets, d the largest set size,
    and admits exactly the same hitting sets of size <= k as the input: a
    hitting set missing the core of a (k+2)-petal sunflower would need
    k+2 > k private vertices, so the core is always hit and any one petal
    is redundant.
    """
    family = set(frozenset(s) for s in sets)
    if not family:
        return family
    d = max(len(s) for s in family)
    bound = factorial(d) * (k + 1) ** d
    while len(family) > bound:
        found = find_sunflower(family, k + 2)
        if found is None:  # pragma: no cover - contradicts the size bound
            raise AssertionError("family above sunflower bound but no sunflower")
        _core, pets = found
        family.discard(_canon(pets)[0])
    return family


# ---------------------------------------------------------------------------
# flowers at a hub over a forest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flower:
    #: petals as vertex tuples excluding the hub; a 1-tuple is a parallel
    #: edge cycle, longer tuples are paths closing through the hub
    petals: tuple[tuple[int, ...], ...]
    #: hub-avoiding vertex set meeting every cycle through the hub
    cover: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.petals)


def flower_in_forest(g: MultiGraph, hub: int, region) -> Flower:
    """Maximum hub-flower when ``region`` induces a forest.

    Cycles through the hub inside {hub} + region are either parallel-edge
    2-cycles or hub + a path between two distinct single-edge neighbors.
    Double-edge neighbors are forced: they join the packing as 2-cycles and
    the cover outright.  The rest is a maximum vertex-disjoint packing of
    anchor-to-anchor paths in the forest minus those forced vertices,
    found bottom-up: walk each tree from the leaves, carry at most one
    open anchor claim upward, and close a petal whenever two claims meet;
    the meeting vertices form a cover of the same size, which proves both
    sides optimal.  The forest is walked in place, never copied, and
    checked as it is walked: a vertex reached twice, or a parallel edge
    between walked vertices, raises ``ValueError``.  So the region minus
    the doubled neighbors must be a forest; a cycle through a doubled
    neighbor cannot change the result, as that neighbor is a petal and in
    the cover already.
    """
    if hub in region:
        raise ValueError("hub must lie outside the region")
    region = sorted(region)
    doubles = [u for u in region if g.multiplicity(hub, u) >= 2]
    anchors = {u for u in region if g.multiplicity(hub, u) == 1}
    keep = set(region).difference(doubles)
    petals: list[tuple[int, ...]] = [(u,) for u in doubles]
    cover: list[int] = list(doubles)

    seen: set[int] = set()
    for root in region:
        if root in seen or root not in keep:
            continue
        # iterative post-order; claims[u] = path from an anchor down in
        # u's subtree up to and including u, or None
        claims: dict[int, list[int] | None] = {}
        stack: list = [(root, -1, None)]
        while stack:
            u, parent, kids = stack.pop()
            if kids is None:  # first visit: check, then walk the children
                kids = [w for w in g.neighbors(u) if w != parent and w in keep]
                if u in seen or any(g.multiplicity(u, w) > 1 for w in kids):
                    raise ValueError("region must induce a forest")
                seen.add(u)
                stack.append((u, parent, kids))
                stack.extend((w, u, None) for w in kids)
                continue
            open_claims = [[u]] if u in anchors else []
            for w in kids:
                c = claims.pop(w)
                if c is not None:
                    c.append(u)
                    open_claims.append(c)
            if len(open_claims) >= 2:
                left, right = open_claims[0], open_claims[1]
                petals.append(tuple(left[:-1]) + tuple(reversed(right)))
                cover.append(u)
                claims[u] = None
            else:
                claims[u] = open_claims[0] if open_claims else None
    return Flower(petals=tuple(petals), cover=tuple(sorted(cover)))


# ---------------------------------------------------------------------------
# q-expansion
# ---------------------------------------------------------------------------

def q_expansion(a_items, b_items, nbrs, q: int):
    """Expansion pair (A*, B*, M) for the bipartite graph B -> A.

    ``nbrs[b]`` lists the A-side neighbors of b.  Returns A* and B* with a
    q-matching M (dict: a -> tuple of q distinct B*-partners) saturating
    A*, such that no vertex of B* has a neighbor in A outside A*, and at
    most q * |A - A*| vertices of B are left out of B*.

    A* can be empty only when the flow under-saturates and every A-vertex
    is residually reachable; with |B| >= q|A| and no isolated B-vertex
    that cannot happen, which callers needing nonemptiness assert.
    """
    a_list = sorted(a_items)
    b_list = sorted(b_items)
    a_idx = {a: i for i, a in enumerate(a_list)}
    na, nb = len(a_list), len(b_list)
    s, t = na + nb, na + nb + 1
    net = Dinic(na + nb + 2)
    for i in range(na):
        net.add_edge(s, i, q)
    mid_arcs = []  # (a, b, edge index)
    for j, b in enumerate(b_list):
        for a in sorted(set(nbrs[b])):
            mid_arcs.append((a, b, net.add_edge(a_idx[a], na + j, 1)))
        net.add_edge(na + j, t, 1)
    flow = net.max_flow(s, t)

    partners: dict = {a: [] for a in a_list}
    for a, b, idx in mid_arcs:
        if net.flow_on(idx):
            partners[a].append(b)

    if flow == q * na:
        a_hat = set(a_list)
        b_hat = set(b_list)
    else:
        reach = net.residual_reachable(s)
        ra = {a for a in a_list if a_idx[a] in reach}
        a_hat = set(a_list) - ra
        matched_to_ra = {b for a in ra for b in partners[a]}
        rb = {b_list[j] for j in range(nb) if na + j in reach}
        b_hat = set(b_list) - rb - matched_to_ra
    matching = {a: tuple(sorted(partners[a])) for a in a_hat}
    for a, bs in matching.items():
        if len(bs) != q:  # pragma: no cover - flow accounting broken
            raise AssertionError("expansion failed to saturate its A side")
    return a_hat, b_hat, matching
