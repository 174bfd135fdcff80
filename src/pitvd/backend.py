"""Bitmask graph primitives.

All functions work on a simple graph given as ``adj``: a list where
``adj[i]`` is the bitmask of neighbors of vertex ``i`` (positions, not
stable ids -- callers translate).  ``mask`` selects the vertex subset under
consideration.  Masks are Python ints, so graphs of any width are handled.

One lexicographic BFS (``lbfs``) serves every vertex ordering: the
umbrella sweeps of ``recognition.pig_order`` and the chordality check,
which reads the reverse LBFS order as a perfect elimination order (Rose,
Tarjan and Lueker 1976).

An order is read through its prefix masks (``prefix_masks``): ``pre[j]``
holds its first j vertices.  Two facts are all the order checks need.
The vertex of a mask placed latest is found by a binary search over the
prefixes (``latest``); it is the pivot of the tie-breaking sweeps and of
the chordality check.  A neighbourhood is a contiguous run of the order
when it fills the gap between two prefixes, one comparison; that is the
umbrella check, and ``cliques.clique_path`` cuts its blocks the same way.

One BFS walk (``shortest_path``) serves every shortest path the
recognizer needs: the hole that a failed chordality check closes and
the claw-to-triangle path of a claw-and-triangle span.  Its ties go to
the lowest position at every step.

The two scans for small obstructions (nets, tents and 4-6 holes) stop
wherever a mask shows that nothing more can be found.  The hole DFS
carries the vertices that can still close its cycle and cuts a branch
once none is left; the net and tent scan tests the three sets of each
triangle's triple searches before it starts one.  Only work that would
emit nothing is cut, so both list what an unpruned scan lists, in its
order.

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


def id_mask(index: dict[int, int], vs) -> int:
    """The mask of the positions that ``index`` gives the ids ``vs``."""
    m = 0
    for v in vs:
        m |= 1 << index[v]
    return m


def comp_masks(adj: list[int], mask: int) -> list[int]:
    """Connected components of the induced subgraph, as masks, by lowest bit."""
    comps = []
    rem = mask
    while rem:
        comp = reach(adj, rem & -rem, mask)
        comps.append(comp)
        rem &= ~comp
    return comps


def reach(adj: list[int], seeds: int, mask: int) -> int:
    """The positions of ``mask`` joined to ``seeds`` (a subset of
    ``mask``) by a path inside ``mask``: the union of the components of
    the induced subgraph that meet ``seeds``."""
    comp = frontier = seeds
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        nxt &= mask & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def shortest_path(adj: list[int], sources: int, targets: int,
                  mask: int) -> list[int]:
    """A shortest path inside ``mask`` from a target back to a source
    (``sources`` a subset of ``mask``), or ``[]`` when no target is
    reached.

    BFS layers grow from ``sources`` until one meets ``targets``; the
    path starts at the lowest target of that layer and steps each time
    to the lowest-position neighbour in the layer before.
    """
    layers = [sources]
    seen = sources
    while not layers[-1] & targets:
        nxt = 0
        for u in bits(layers[-1]):
            nxt |= adj[u]
        nxt &= mask & ~seen
        if not nxt:
            return []
        layers.append(nxt)
        seen |= nxt
    step = layers.pop() & targets
    path = [(step & -step).bit_length() - 1]
    for layer in reversed(layers):
        step = adj[path[-1]] & layer
        path.append((step & -step).bit_length() - 1)
    return path


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


def prefix_masks(order) -> list[int]:
    """``pre[j]``, for j = 0..len(order), is the mask of the first j
    vertices of ``order``."""
    pre = [0]
    m = 0
    for v in order:
        m |= 1 << v
        pre.append(m)
    return pre


def latest(order, pre: list[int], mask: int) -> int:
    """The vertex of the nonempty ``mask`` placed latest in ``order``,
    whose prefix masks are ``pre``; ``mask`` must lie inside the order.

    It is the last vertex of the shortest prefix that holds all of
    ``mask``, found by binary search; a one-vertex mask is read directly.
    """
    if not mask & (mask - 1):
        return mask.bit_length() - 1
    lo, hi = 1, len(order)
    while lo < hi:
        mid = (lo + hi) >> 1
        if mask & ~pre[mid]:
            lo = mid + 1
        else:
            hi = mid
    return order[lo - 1]


def lbfs(adj: list[int], mask: int, prev=None) -> list[int]:
    """One lexicographic BFS sweep over the positions in ``mask``, by
    partition refinement of bitmask slices; ``[]`` for an empty mask.

    Ties inside the first slice go to the lowest position on a first
    sweep, and to the vertex latest in the previous sweep ``prev`` when
    it is given.  ``prev`` must hold every position of ``mask``, else
    ``ValueError``.  A disconnected mask is swept one component after
    another.
    """
    if prev is not None:
        pre = prefix_masks(prev)
        if mask & ~pre[-1]:
            raise ValueError("the previous sweep misses a vertex of the mask")
    slices = [mask] if mask else []
    order: list[int] = []
    while slices:
        first = slices[0]
        if prev is None:
            v = (first & -first).bit_length() - 1
        else:
            v = latest(prev, pre, first)
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
    pre = prefix_masks(order)
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        # the neighbours eliminated after v are those swept before it
        l_nbrs = adj[v] & pre[i]
        if l_nbrs & (l_nbrs - 1):
            # the first of them to be eliminated is the last one swept
            p = latest(order, pre, l_nbrs)
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
    neighbour on each side, one in Pa = N(a) - N[b] and one in
    Pb = N(b) - N[a] (x and y of a net, z and y of a tent).  A pair
    (a, b) without them is skipped before its triangles are walked.  On
    a triangle (a, b, c), a net needs Pa - N(c), Pb - N(c) and
    N(c) - N[a] - N[b] nonempty, and a tent Pa & N(c), Pb & N(c) and
    (N(a) & N(b)) - N[c]; a triangle that has neither starts no triple
    search.  What is skipped would emit nothing, so the output and its
    order are those of the unpruned scan.

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
            pa = adj[a] & ~adj[b] & mask & ~ab
            pb = adj[b] & ~adj[a] & mask & ~ab
            if not (pa and pb):
                continue
            common = adj[a] & adj[b] & mask
            cs = common if a_near or (near >> b) & 1 else common & near
            for c in bits(cs):
                if c <= b:
                    continue
                nc = adj[c]
                # each search's three sets, tested before it starts: a net's
                # outer vertices are private to a, b and c, a tent's see
                # ab, bc and ca
                nx, ny = pa & ~nc, pb & ~nc
                nz = nx and ny and nc & mask & ~adj[a] & ~adj[b]
                ty, tz = pb & nc, pa & nc
                tx = tent is None and ty and tz and common & ~nc & ~(1 << c)
                if not (nz or tx):
                    continue
                tri = (a, b, c)
                # the anchors the outer vertices must meet, 0 if any may
                miss = (0 if anchors is None or (ab | (1 << c)) & anchors
                        else anchors)
                for xyz in (_independent_triples(adj, nx, ny, nz, miss)
                            if nz else ()):
                    if not find_all:
                        return [("net", tri + xyz)]
                    out.append(("net", tri + xyz))
                for xyz in (_independent_triples(adj, tx, ty, tz, miss)
                            if tx else ()):
                    if not find_all:
                        tent = ("tent", tri + xyz)
                        break
                    out.append(("tent", tri + xyz))
    return out if find_all else [tent] if tent else []


def _cycle_dfs(adj, s, rest, path, blocked, close, out, find_all) -> bool:
    """Extend the induced path ``path`` = (s, p1, ..., pt) inside ``rest``
    and emit the holes it closes; True once ``find_all`` is false and a
    hole is emitted.

    ``blocked`` holds N[s], N[p1..p(t-1)] and the path: the next vertex
    must avoid it.  ``close`` holds the vertices that may still end the
    cycle: N(s) inside ``rest``, above p1 and off N[p1..p(t-1)] (at the
    root, all of N(s) inside ``rest``).
    """
    t = len(path) - 1
    last = path[-1]
    if t >= 2:
        for w in bits(adj[last] & close):
            out.append(path + (w,))
            if not find_all:
                return True
        if t == 4:
            return False
    if not t:
        for w in bits(close):
            sub = close & ~((2 << w) - 1)
            if sub & ~adj[w] and _cycle_dfs(adj, s, rest, (s, w),
                                            blocked | (1 << w), sub, out,
                                            find_all):
                return True
        return False
    close &= ~adj[last]
    if not close:
        return False
    ext = adj[last] & rest & ~blocked
    blocked |= adj[last]
    for w in bits(ext):
        # a last vertex p4 must see a closer
        if t == 3 and not adj[w] & close:
            continue
        if _cycle_dfs(adj, s, rest, path + (w,), blocked | (1 << w), close,
                      out, find_all):
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

    Each DFS node carries the mask of the vertices that may still close
    its cycle: N(s) in the searched set, above p1, off the closed
    neighbourhoods of the interior vertices.  A child gets the mask less
    N[pt], and the closers at pt are its neighbours in the mask, so a
    branch whose mask runs empty is cut, and a last vertex p4 is tried
    only when it sees a vertex of the mask.  Only branches that would
    emit nothing are cut: the list, its order and the first hole found
    without ``find_all`` are those of the unpruned DFS.
    """
    out = []
    done = 0
    for s in bits(anchors & mask):
        done |= 1 << s
        rest = mask & ~done
        if _cycle_dfs(adj, s, rest, (s,), adj[s] | (1 << s), adj[s] & rest,
                      out, find_all):
            return out
    return out


def umbrella_ok(adj: list[int], order) -> bool:
    """True iff ``order`` is a proper-interval (umbrella) ordering.

    Equivalent formulation checked here: every vertex's neighborhood within
    the order occupies a contiguous position interval around the vertex.
    Its later part, with the prefix before it, must be a prefix of the
    order; its earlier part must fill the gap between two prefixes.
    """
    pre = prefix_masks(order)
    omask = pre[-1]
    for i, v in enumerate(order):
        nb = adj[v]
        upto = (nb | pre[i + 1]) & omask
        if upto != pre[upto.bit_count()]:
            return False
        before = nb & pre[i]
        if before | pre[i - before.bit_count()] != pre[i]:
            return False
    return True
