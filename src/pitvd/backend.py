"""Bitmask graph primitives.

All functions work on a simple graph given as ``adj``: a list where
``adj[i]`` is the bitmask of neighbors of vertex ``i`` (positions, not
stable ids -- callers translate).  ``mask`` selects the vertex subset under
consideration.  Masks are Python ints, so graphs of any width are handled.

One lexicographic BFS (``lbfs``) serves every vertex ordering: the
umbrella sweeps of ``recognition.pig_order`` and the chordality check,
which reads the reverse LBFS order as a perfect elimination order (Rose,
Tarjan and Lueker 1976).

These are the innermost loops of the whole package (the exact solver and the
recognizer call them many thousands of times), hence the flat,
allocation-shy style.
"""

from __future__ import annotations

#: there is no compiled build of these primitives; ``kbench/run.py`` prints this
HAVE_COMPILED = False


def bits(x: int):
    """Yield set bit positions of ``x`` in ascending order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def comp_masks(adj: list[int], mask: int) -> list[int]:
    """Connected components of the induced subgraph, as masks, by lowest bit."""
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            nxt &= mask & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def count_edges(adj: list[int], mask: int) -> int:
    total = 0
    for v in bits(mask):
        total += (adj[v] & mask).bit_count()
    return total // 2


def find_triangle(adj: list[int], mask: int):
    """First triangle (a, b, c) with a < b < c in scan order, or None."""
    for a in bits(mask):
        for b in bits(adj[a] & mask):
            if b <= a:
                continue
            common = adj[a] & adj[b] & mask & ~((1 << (b + 1)) - 1)
            if common:
                return (a, b, (common & -common).bit_length() - 1)
    return None


def find_claw(adj: list[int], mask: int):
    """First induced claw as (center, leg1, leg2, leg3), legs ascending."""
    for c in bits(mask):
        nb = adj[c] & mask
        if nb.bit_count() < 3:
            continue
        for a in bits(nb):
            rest_a = nb & ~adj[a] & ~((1 << (a + 1)) - 1)
            for b in bits(rest_a):
                rest_b = rest_a & ~adj[b] & ~((1 << (b + 1)) - 1)
                if rest_b:
                    d = (rest_b & -rest_b).bit_length() - 1
                    return (c, a, b, d)
    return None


def lbfs(adj: list[int], mask: int, prev_pos=None) -> list[int]:
    """One lexicographic BFS sweep over the positions in ``mask``, by
    partition refinement of bitmask slices; ``[]`` for an empty mask.

    Ties inside the first slice go to the lowest position on a first
    sweep, and to the vertex latest in the previous sweep when its
    positions ``prev_pos`` are given.  A disconnected mask is swept one
    component after another.
    """
    slices = [mask] if mask else []
    order: list[int] = []
    while slices:
        first = slices[0]
        if prev_pos is None:
            v = (first & -first).bit_length() - 1
        else:
            v = max(bits(first), key=prev_pos.__getitem__)
        slices[0] = first & ~(1 << v)
        order.append(v)
        nb = adj[v]
        refined = []
        for s in slices:
            ins = s & nb
            if ins:
                refined.append(ins)
            if ins != s:
                refined.append(s & ~nb)
        slices = refined
    return order


def chordal_fail(adj: list[int], mask: int):
    """None if the induced subgraph is chordal, else a witness triple.

    The reverse LBFS order is a perfect elimination order exactly when
    the graph is chordal (Rose, Tarjan and Lueker 1976), so one sweep
    decides.  The triple ``(v, x, y)`` has x, y in N(v), xy not an edge,
    and both x and y later than v in the reverse LBFS order; such a
    triple always exists in a non-chordal graph and seeds hole
    extraction.
    """
    order = lbfs(adj, mask)
    pos = {v: i for i, v in enumerate(order)}
    later = mask
    for v in reversed(order):
        later &= ~(1 << v)
        l_nbrs = adj[v] & later
        if l_nbrs.bit_count() < 2:
            continue
        # the first of them to be eliminated is the last one swept
        p = max(bits(l_nbrs), key=pos.__getitem__)
        bad = l_nbrs & ~adj[p] & ~(1 << p)
        if bad:
            return (v, p, (bad & -bad).bit_length() - 1)
    return None


def _independent_triples(adj, pa, pb, pc, meet=0):
    """Pairwise non-adjacent (x, y, z) from pa x pb x pc, in scan order;
    with ``meet`` nonzero, only the triples with a vertex in ``meet``."""
    if not (pa and pb and pc) or meet and not (pa | pb | pc) & meet:
        return
    for x in bits(pa):
        for y in bits(pb & ~adj[x]):
            for z in bits(pc & ~adj[x] & ~adj[y]):
                if not meet or ((1 << x) | (1 << y) | (1 << z)) & meet:
                    yield x, y, z


def net_tent_witnesses(adj: list[int], mask: int, find_all: bool,
                       anchors: int | None = None) -> list:
    """Induced nets and tents in the induced subgraph.

    Returns ``(kind, (a, b, c, x, y, z))`` tuples where (a, b, c) is the
    central triangle and x, y, z the outer vertices (for a net, x hangs at a,
    y at b, z at c; for a tent, x sees ab, y sees bc, z sees ca).  With
    ``find_all`` false, returns at most one entry: the first net, or the
    first tent when there is no net.  One scan serves both; it stops
    looking for tents once it has one.

    Each edge ab of the central triangle of a net or a tent has a private
    neighbour on each side, one in N(a) - N[b] and one in N(b) - N[a]
    (x and y of a net, z and y of a tent).  A pair (a, b) without them is
    skipped before its triangles are walked; it would emit nothing, so
    the output and its order are those of the unpruned scan.

    With ``anchors`` given, only the nets and tents whose six vertices
    meet it are emitted, in the same order, and the first of each kind
    is the first that meets it.  Every outer vertex sees the central
    triangle, so such a net or tent has a triangle vertex in N[anchors],
    and the scan walks no other triangle.
    """
    out = []
    tent = None
    # N[anchors] within mask (all of mask without anchors): each walked
    # triangle a < b < c has a vertex in it
    near = mask
    if anchors is not None:
        anchors &= mask
        near = anchors
        for v in bits(anchors):
            near |= adj[v]
        near &= mask
    for a in bits(mask):
        a_near = (near >> a) & 1
        if not (a_near or (adj[a] & near) >> (a + 1)):
            continue
        for b in bits(adj[a] & mask):
            if b <= a:
                continue
            ab = (1 << a) | (1 << b)
            if not (adj[a] & ~adj[b] & mask & ~ab
                    and adj[b] & ~adj[a] & mask & ~ab):
                continue
            cs = adj[a] & adj[b] & mask
            if not (a_near or (near >> b) & 1):
                cs &= near
            for c in bits(cs):
                if c <= b:
                    continue
                tri = (a, b, c)
                abc = ab | (1 << c)
                # the anchors the outer vertices must meet, 0 if any may
                miss = 0 if anchors is None or abc & anchors else anchors
                outside = mask & ~abc
                na, nb, nc = adj[a] & outside, adj[b] & outside, adj[c] & outside
                for xyz in _independent_triples(adj, na & ~nb & ~nc,
                                                nb & ~na & ~nc,
                                                nc & ~na & ~nb, miss):
                    if not find_all:
                        return [("net", tri + xyz)]
                    out.append(("net", tri + xyz))
                if tent is not None:
                    continue
                for xyz in _independent_triples(adj, na & nb & ~nc,
                                                nb & nc & ~na,
                                                nc & na & ~nb, miss):
                    if not find_all:
                        tent = ("tent", tri + xyz)
                        break
                    out.append(("tent", tri + xyz))
    return out if find_all else [tent] if tent else []


def _cycle_dfs(adj, s, rest, path, pmask, blocked, out, find_all) -> bool:
    t = len(path) - 1
    last = path[-1]
    if t >= 2:
        closers = adj[last] & adj[s] & rest & ~pmask
        for i in range(1, t):
            closers &= ~adj[path[i]]
        for w in bits(closers):
            if path[1] < w:
                out.append(path + (w,))
                if not find_all:
                    return True
    if t >= 4:
        return False
    ext = adj[last] & rest & ~blocked if t else adj[last] & rest
    for w in bits(ext):
        if _cycle_dfs(adj, s, rest, path + (w,), pmask | (1 << w),
                      blocked | adj[last] | (1 << w), out, find_all):
            return True
    return False


def small_cycles(adj: list[int], mask: int, anchors: int,
                 find_all: bool) -> list:
    """Induced cycles on 4..6 vertices that meet ``anchors``, as vertex
    tuples in cycle order.

    Canonical form: the cycle starts at its first anchor (the lowest one
    on it) and runs toward the smaller of its two neighbors on the cycle;
    each cycle appears once.  The anchors in ``mask`` are tried in
    ascending order; from anchor s, a DFS over induced paths s, p1, ..., pt
    in ``mask`` minus s and the earlier anchors closes back to s, and
    interior path vertices are kept out of N[s] so only true induced
    cycles survive.  With ``anchors == mask`` every short hole is listed,
    each from its minimum vertex.
    """
    out = []
    done = 0
    for s in bits(anchors & mask):
        done |= 1 << s
        if _cycle_dfs(adj, s, mask & ~done, (s,), 1 << s, adj[s] | (1 << s),
                      out, find_all):
            return out
    return out


def umbrella_ok(adj: list[int], order) -> bool:
    """True iff ``order`` is a proper-interval (umbrella) ordering.

    Equivalent formulation checked here: every vertex's neighborhood within
    the order occupies a contiguous position interval around the vertex.
    """
    pos = {}
    omask = 0
    for i, v in enumerate(order):
        pos[v] = i
        omask |= 1 << v
    for i, v in enumerate(order):
        nb = adj[v] & omask
        if not nb:
            continue
        lo = hi = i
        cnt = 0
        for u in bits(nb):
            p = pos[u]
            if p < lo:
                lo = p
            if p > hi:
                hi = p
            cnt += 1
        if cnt != hi - lo:
            return False
    return True
