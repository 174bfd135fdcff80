"""Shared helpers: graph builders and slow independent oracles.

The brute-force oracles deliberately avoid the package's own algorithms
(they lean on itertools and networkx instead) so that agreement is evidence,
not circularity.  The exhaustive oracles further down compose the bitmask
primitives, which the tests check against the brute-force oracles.
"""

from __future__ import annotations

import itertools

import networkx as nx

from pitvd import backend
from pitvd.backend import bits
from pitvd import recognition as rec
from pitvd.cli import MAX_VERTICES, ParseError, _integers
from pitvd.exact import DEFAULT_NODE_LIMIT, SearchLimitExceeded, decide
from pitvd.combinatorics import sunflower_reduce
from pitvd.modulator import (classify_tree_side, compute_base_set,
                             greedy_modulator, small_obstruction_family)
from pitvd.multigraph import Deg2Path, MultiGraph
from pitvd.rules import RuleApplication, deletion


def adj_from_edges(n: int, edges) -> list[int]:
    """Bitmask adjacency for vertex positions 0..n-1."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def mask_of(n: int) -> int:
    return (1 << n) - 1


def nx_from_adj(adj: list[int], mask: int | None = None) -> nx.Graph:
    g = nx.Graph()
    full = mask_of(len(adj)) if mask is None else mask
    for v in range(len(adj)):
        if (full >> v) & 1:
            g.add_node(v)
    for v in g.nodes:
        nb = adj[v] & full
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if u > v:
                g.add_edge(v, u)
    return g


def graph_from_int(n: int, code: int) -> list[int]:
    """Decode a graph from the integer whose bits are the C(n,2) edge slots."""
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (code >> i) & 1:
                edges.append((u, v))
            i += 1
    return adj_from_edges(n, edges)


def all_graphs(n: int):
    for code in range(1 << (n * (n - 1) // 2)):
        yield graph_from_int(n, code)


def random_adj(rng, n: int, p: float) -> list[int]:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return adj_from_edges(n, edges)


def random_multigraph(rng, n: int, p: float, double_frac: float = 0.0) -> MultiGraph:
    g = MultiGraph()
    ids = [g.add_vertex() for _ in range(n)]
    for u, v in itertools.combinations(ids, 2):
        if rng.random() < p:
            g.add_edge(u, v, 2 if rng.random() < double_frac else 1)
    return g


def random_near_tree(rng, n: int) -> MultiGraph:
    """Random tree on 0..n-1, about a tenth of its edges doubled, plus up to
    three extra edges: its subsets are trees, forests and neither."""
    g = MultiGraph.from_edges([], vertices=range(n))
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v, 2 if rng.random() < 0.1 else 1)
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        g.add_edge(*rng.sample(range(n), 2))
    return g


def random_forest(rng, n: int, double_frac: float = 0.15) -> MultiGraph:
    """Random forest on 0..n-1 in which some edges are doubled: each vertex
    joins an earlier one with probability 0.8."""
    g = MultiGraph.from_edges([], vertices=range(n))
    for v in range(1, n):
        if rng.random() < 0.8:
            g.add_edge(rng.randrange(v), v,
                       2 if rng.random() < double_frac else 1)
    return g


def tree_and_cyclic(rng, n: int) -> MultiGraph:
    """A random simple tree next to a random multigraph with a cycle, both
    on about n vertices; half the time one plain edge joins the two."""
    t = rng.randint(1, max(1, n - 3))
    g = MultiGraph.from_edges([], vertices=range(n))
    for v in range(1, t):
        g.add_edge(rng.randrange(v), v)
    ring = list(range(t, n))
    if len(ring) >= 3:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            g.add_edge(a, b)
    for _ in range(rng.randint(0, 2) if len(ring) > 1 else 0):
        g.add_edge(*rng.sample(ring, 2))
    if ring and rng.random() < 0.5:
        g.add_edge(rng.randrange(t), rng.choice(ring))
    return g


def attach_tail(g: MultiGraph, v: int, length: int) -> None:
    """Attach a fresh path of ``length`` vertices pendant at v."""
    for _ in range(length):
        u = g.add_vertex()
        g.add_edge(v, u)
        v = u


def to_networkx(g: MultiGraph) -> nx.Graph:
    """Underlying simple graph of a MultiGraph."""
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    for u, v, _m in g.edges():
        out.add_edge(u, v)
    return out


def nx_multigraph(g: MultiGraph, vs=None) -> nx.MultiGraph:
    """The sub-multigraph induced on ``vs`` (default: all of ``g``), each
    edge repeated by its multiplicity, so networkx's tree and forest tests
    reject parallel edges."""
    out = nx.MultiGraph()
    out.add_nodes_from(g.vertices)
    for u, v, m in g.edges():
        out.add_edges_from([(u, v)] * m)
    return out if vs is None else out.subgraph(vs)


# ---------------------------------------------------------------------------
# brute-force structure oracles (itertools-based, independent of pitvd)
# ---------------------------------------------------------------------------

def brute_triangles(adj, mask):
    vs = [v for v in range(len(adj)) if (mask >> v) & 1]
    out = []
    for a, b, c in itertools.combinations(vs, 3):
        if (adj[a] >> b) & 1 and (adj[a] >> c) & 1 and (adj[b] >> c) & 1:
            out.append((a, b, c))
    return out


def brute_claws(adj, mask):
    vs = [v for v in range(len(adj)) if (mask >> v) & 1]
    out = []
    for c in vs:
        legs = [v for v in vs if (adj[c] >> v) & 1]
        for a, b, d in itertools.combinations(legs, 3):
            if not ((adj[a] >> b) & 1 or (adj[a] >> d) & 1 or (adj[b] >> d) & 1):
                out.append((c, a, b, d))
    return out


def brute_induced_cycles(adj, mask, lengths=(4, 5, 6)):
    """Vertex sets (frozensets) of induced cycles of the given lengths."""
    g = nx_from_adj(adj, mask)
    found = set()
    for ln in lengths:
        ref = nx.cycle_graph(ln)
        for sub in itertools.combinations(sorted(g.nodes), ln):
            if nx.is_isomorphic(g.subgraph(sub), ref):
                found.add(frozenset(sub))
    return found


# ---------------------------------------------------------------------------
# oracles built on the package's primitives (exhaustive, small inputs only)
# ---------------------------------------------------------------------------

def lbfs_by_lists(adjm: list[int], verts: list[int], prev_pos=None):
    """One LBFS sweep refining Python lists of positions: the form the
    bitmask ``backend.lbfs`` replaced, kept as its oracle."""
    slices = [list(verts)]
    order: list[int] = []
    while slices:
        first = slices[0]
        if prev_pos is None:
            v = min(first)
        else:
            v = max(first, key=prev_pos.__getitem__)
        first.remove(v)
        order.append(v)
        nb = adjm[v]
        refined = []
        for s in slices:
            ins = [u for u in s if (nb >> u) & 1]
            outs = [u for u in s if not (nb >> u) & 1]
            if ins:
                refined.append(ins)
            if outs:
                refined.append(outs)
        slices = refined
    return order


def pig_order_three_sweeps(adjm: list[int], comp: int):
    """``recognition.pig_order`` as it swept before it stopped at a first
    sweep that is already an umbrella ordering: always three LBFS sweeps,
    then the umbrella check of the last.  Kept as its oracle."""
    s1 = backend.lbfs(adjm, comp)
    s2 = backend.lbfs(adjm, comp, s1)
    s3 = backend.lbfs(adjm, comp, s2)
    return tuple(s3) if backend.umbrella_ok(adjm, s3) else None


def umbrella_ok_by_positions(adj: list[int], order) -> bool:
    """The umbrella check by an edge walk: every neighbourhood's extreme
    positions bound a run it fills.  The O(m) form the prefix-mask
    ``backend.umbrella_ok`` replaced, kept as its oracle."""
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
        for u in backend.bits(nb):
            p = pos[u]
            lo, hi = min(lo, p), max(hi, p)
            cnt += 1
        if cnt != hi - lo:
            return False
    return True


def clique_path_by_ranks(g: MultiGraph, comp: list[int]):
    """The blocks of ``cliques.clique_path`` computed in rank space: the
    component relabelled along its umbrella order, each block ending at
    the last neighbour of its first vertex.  The form the prefix-mask
    blocks replaced, kept as their oracle."""
    ids, _, adjm = g.compact(comp)
    full = (1 << len(ids)) - 1
    order_pos = rec.pig_order(adjm, full)
    n = len(order_pos)
    rank = {p: i for i, p in enumerate(order_pos)}
    radj = [0] * n
    for i, p in enumerate(order_pos):
        for q in backend.bits(adjm[p] & full):
            radj[i] |= 1 << rank[q]
    blocks = []
    s = 0
    while s < n:
        later = radj[s] >> (s + 1)
        r = s + later.bit_length() if later else s
        for i in range(s, r + 1):
            assert not ((1 << (r + 1)) - (1 << s)) & ~radj[i] & ~(1 << i)
        blocks.append(tuple(ids[order_pos[i]] for i in range(s, r + 1)))
        s = r + 1
    return tuple(ids[p] for p in order_pos), tuple(blocks)


def shift_adj(adj: list[int], off: int) -> list[int]:
    """``adj`` with every position moved up by ``off``, below it nothing:
    the same graph at the high positions a whole-graph view gives."""
    return [0] * off + [a << off for a in adj]


def witness_in_searched_order(adjm, comp):
    """``recognition.witness`` as it searched before the chordality check
    gated the hole searches: nets, tents, short holes, a hole seeded by
    ``chordal_fail``, then a claw plus a triangle."""
    wits = backend.net_tent_witnesses(adjm, comp, True)
    for want in ("net", "tent"):
        for got, t in wits:
            if got == want:
                return rec.Obstruction(want, t)
    short = backend.small_cycles(adjm, comp, comp, False)
    if short:
        return rec.Obstruction("hole", short[0])
    fail = backend.chordal_fail(adjm, comp)
    if fail is not None:
        return rec.Obstruction("hole", rec.find_hole(adjm, comp, seed=fail))
    claw = backend.find_claw(adjm, comp)
    tri = backend.find_triangle(adjm, comp)
    if claw is None or tri is None:
        return None
    return rec.Obstruction("claw+triangle", claw + tri)


def find_hole_by_parents(adjm: list[int], comp: int, seed) -> tuple[int, ...]:
    """``recognition.find_hole`` as one BFS from x that records, for each
    vertex it reaches, the first vertex of the layer before to see it,
    then walks those parents back from y."""
    v, x, y = seed
    allowed = (comp & ~adjm[v] & ~(1 << v)) | (1 << x) | (1 << y)
    parent = {x: -1}
    frontier = seen = 1 << x
    while frontier and not (seen >> y) & 1:
        nxt = 0
        for u in bits(frontier):
            new = adjm[u] & allowed & ~seen & ~nxt
            for w in bits(new):
                parent[w] = u
            nxt |= new
        seen |= nxt
        frontier = nxt
    path = [y]
    while path[-1] != x:
        path.append(parent[path[-1]])
    return (v, *reversed(path))


def claw_triangle_span_by_layers(adjm: list[int], comp: int) -> int:
    """``recognition.claw_triangle_span`` with its own layered BFS from
    the claw, walked back from the lowest vertex of the triangle in the
    first layer that meets it to the lowest neighbour in each layer
    before."""
    claw = backend.find_claw(adjm, comp)
    tri = claw and backend.find_triangle(adjm, comp)
    if not tri:
        return 0
    span = sum(1 << v for v in claw)
    ends = sum(1 << v for v in tri)
    layers = [span]
    seen = span
    while not seen & ends:
        nxt = 0
        for u in bits(layers[-1]):
            nxt |= adjm[u]
        nxt &= comp & ~seen
        layers.append(nxt)
        seen |= nxt
    step = layers.pop() & ends
    span |= ends
    for layer in reversed(layers):
        step = step & -step
        span |= step
        step = adjm[step.bit_length() - 1] & layer
    return span


def net_tent_witnesses_unpruned(adj, mask, find_all):
    """``backend.net_tent_witnesses`` as it scanned before it skipped the
    triangle edges without a private neighbour on each side: every
    triangle a < b < c is walked."""
    out = []
    tent = None
    for a, b, c in brute_triangles(adj, mask):
        tri = (a, b, c)
        outside = mask & ~((1 << a) | (1 << b) | (1 << c))
        na, nb, nc = adj[a] & outside, adj[b] & outside, adj[c] & outside
        for xyz in backend._independent_triples(adj, na & ~nb & ~nc,
                                                nb & ~na & ~nc,
                                                nc & ~na & ~nb):
            if not find_all:
                return [("net", tri + xyz)]
            out.append(("net", tri + xyz))
        if tent is not None:
            continue
        for xyz in backend._independent_triples(adj, na & nb & ~nc,
                                                nb & nc & ~na,
                                                nc & na & ~nb):
            if not find_all:
                tent = ("tent", tri + xyz)
                break
            out.append(("tent", tri + xyz))
    return out if find_all else [tent] if tent else []


def _cycle_dfs_unpruned(adj, s, rest, path, pmask, blocked, out, find_all):
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
        if _cycle_dfs_unpruned(adj, s, rest, path + (w,), pmask | (1 << w),
                               blocked | adj[last] | (1 << w), out, find_all):
            return True
    return False


def small_cycles_unpruned(adj, mask, anchors, find_all):
    """``backend.small_cycles`` as it searched before its DFS was bounded
    by the vertices that can still close a hole: every induced path of
    up to five vertices from each anchor is walked, and the closers of
    each are found by a loop over the path."""
    out = []
    done = 0
    for s in bits(anchors & mask):
        done |= 1 << s
        if _cycle_dfs_unpruned(adj, s, mask & ~done, (s,), 1 << s,
                               adj[s] | (1 << s), out, find_all):
            return out
    return out


def degree2_paths_reference(g: MultiGraph) -> list[Deg2Path]:
    """``MultiGraph.find_degree2_paths`` as it walked each chain before:
    forward from its least vertex, then backward by prepending, with the
    endpoints read off each end's neighbours.  Paths whose endpoints both
    have degree > 2, once labelled ``overbridge``, read as ``other``."""

    def chainlike(v: int) -> bool:
        return len(g.neighbors(v)) == 2 and g.degree(v) == 2

    chain_verts = {v for v in g.vertices if chainlike(v)}
    paths: list[Deg2Path] = []
    unprocessed = set(chain_verts)
    for s in sorted(chain_verts):
        if s not in unprocessed:
            continue
        order = [s]
        cycle = False
        prev, cur = None, s
        while True:
            ext = [y for y in g.neighbors(cur) if y in chain_verts and y != prev]
            if not ext:
                break
            nxt = min(ext)
            if nxt == s:
                cycle = True
                break
            order.append(nxt)
            prev, cur = cur, nxt
        if not cycle:
            prev, cur = (order[1] if len(order) > 1 else None), s
            while True:
                ext = [y for y in g.neighbors(cur)
                       if y in chain_verts and y != prev]
                if not ext:
                    break
                nxt = min(ext)
                order.insert(0, nxt)
                prev, cur = cur, nxt
        unprocessed -= set(order)
        if cycle:
            lo = order.index(min(order))
            order = order[lo:] + order[:lo]
            paths.append(Deg2Path(tuple(order), "other"))
            continue
        first, last = order[0], order[-1]
        out_first = [y for y in g.neighbors(first) if y not in chain_verts]
        out_last = [y for y in g.neighbors(last) if y not in chain_verts]
        if len(order) == 1:
            a, b = out_first
        else:
            a, b = out_first[0], out_last[0]
        if a == b:
            paths.append(Deg2Path(tuple([a] + order), "other"))
            continue
        verts = [a] + order + [b]
        da, db = g.degree(a), g.degree(b)
        if da > 2 and db == 1:
            paths.append(Deg2Path(tuple(verts), "tail"))
        elif db > 2 and da == 1:
            paths.append(Deg2Path(tuple(reversed(verts)), "tail"))
        else:
            if verts[0] > verts[-1]:
                verts.reverse()
            paths.append(Deg2Path(tuple(verts), "other"))
    paths.sort(key=lambda p: p.vertices)
    return paths


def pig_order_bruteforce(adj, mask):
    """Exhaustive search for an umbrella ordering of one component, or None.

    Independent of the LBFS recognizer; only the final order check
    (``backend.umbrella_ok``) is shared with it.
    """
    verts = [v for v in range(len(adj)) if (mask >> v) & 1]
    n = len(verts)
    if n == 0:
        return ()
    order: list[int] = []
    used = 0

    def place() -> bool:
        nonlocal used
        if len(order) == n:
            return backend.umbrella_ok(adj, order)
        for u in verts:
            ub = 1 << u
            if used & ub:
                continue
            pn = adj[u] & used
            k = pn.bit_count()
            ok = True
            for i in range(len(order) - 1, len(order) - 1 - k, -1):
                if not (pn >> order[i]) & 1:
                    ok = False
                    break
            if not ok:
                continue
            order.append(u)
            used |= ub
            if place():
                return True
            order.pop()
            used &= ~ub
        return False

    return tuple(order) if place() else None


def component_ok(adj, mask) -> bool:
    """Is one connected component (of a simple graph) a tree or a proper
    interval graph?

    A cyclic chordal graph always contains a triangle, so for cyclic
    components the test collapses to chordal + claw-free + {net, tent}-free.
    """
    if backend.count_edges(adj, mask) == mask.bit_count() - 1:
        return True
    return (backend.chordal_fail(adj, mask) is None
            and backend.find_claw(adj, mask) is None
            and not backend.net_tent_witnesses(adj, mask, False))


def pitg_ok(adj, mask) -> bool:
    """Every component a tree or proper interval graph (simple-graph part)."""
    return all(component_ok(adj, c) for c in backend.comp_masks(adj, mask))


def rule1_by_rescan(g: MultiGraph, k: int):
    """Rule 1 without the graph's verdicts: every component by minimum
    id, each judged on a fresh induced copy, up to the first clean one."""
    for comp in g.components():
        h = g.induced(comp)
        ids, _, adjm = h.compact()
        if (all(m == 1 for *_, m in h.edges())
                and pitg_ok(adjm, (1 << len(ids)) - 1)):
            return deletion("1", comp)
    return None


def rule2_by_rescan(g: MultiGraph, k: int):
    """Rule 2 without the heavy-edge index: the first heavy edge of
    ``edges()``."""
    for u, v, m in g.edges():
        if m > 2:
            return RuleApplication(rule="2", ops=(("mult", u, v, 2),),
                                   affected=(u, v))
    return None


def rule3_by_rescan(g: MultiGraph, k: int):
    """Rule 3 without the doubled-neighbour counts: the first vertex with
    k + 1 doubled neighbours, counted from its neighbourhood."""
    for v in g.vertices:
        if sum(g.multiplicity(v, u) >= 2 for u in g.neighbors(v)) > k:
            return deletion("3", [v], k_delta=-1)
    return None


def free_runs_by_rescan(g: MultiGraph, mod) -> list:
    """``rules.free_runs`` without N(S): for each clique path, at each
    clique, walk back while no base vertex has an edge into the clique,
    and count the cliques passed."""
    out = []
    for path in mod.paths:
        runs = []
        for j in range(len(path.cliques)):
            i = j
            while i >= 0 and not any(g.has_edge(x, u) for x in mod.s
                                     for u in path.cliques[i]):
                i -= 1
            runs.append(j - i)
        out.append((path, runs))
    return out


def minimum_deletion(g: MultiGraph, node_limit: int = DEFAULT_NODE_LIMIT):
    """Smallest deletion set, by deepening k: (size, vertex ids)."""
    for k in range(g.n + 1):
        sol = decide(g, k, node_limit=node_limit)
        if sol is not None:
            return k, sol
    raise AssertionError("deleting every vertex always succeeds")


def decide_unpruned(g: MultiGraph, k: int,
                    node_limit: int = DEFAULT_NODE_LIMIT) -> list[int] | None:
    """``exact.decide`` without its bad-component bound and without its
    ban on failed candidates: the same depth-first first-fit search and
    candidate order, kept on whole-graph recognition with a memo of its
    own, closing a node only when it is clean or its budget is spent."""
    if k < 0:
        return None
    verts = frozenset(g.vertices)
    memo: dict = {}
    nodes = 0

    def visit(kk: int, gone: frozenset[int]):
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchLimitExceeded(
                f"exact search exceeded {node_limit} nodes")
        key = (gone, kk)
        if key in memo:
            return memo[key], None
        alive = verts - gone
        ok, obs = rec.is_pitg(g, alive)
        if ok:
            return [], None
        if kk == 0:
            memo[key] = None
            return None, None
        if obs.kind == "claw+triangle":
            return None, g.component_of(obs.vertices[0], alive)
        return None, sorted(set(obs.vertices))

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
    return out


def compute_modulator(g: MultiGraph, k: int,
                      node_limit: int = DEFAULT_NODE_LIMIT):
    """Base set plus strata in one go; ``None`` means decided-no."""
    s, _ = compute_base_set(g, k, node_limit)
    return None if s is None else classify_tree_side(g, s)


def cyclic_side(mod) -> frozenset[int]:
    """V1, the vertices of the cyclic components of G - S: the union of
    the orders of ``mod.paths``."""
    return frozenset(u for p in mod.paths for u in p.order)


def base_set_from_whole_family(g: MultiGraph, k: int,
                               node_limit: int = DEFAULT_NODE_LIMIT):
    """``compute_base_set`` as it was before the short holes were searched
    only through the bootstrap solution: the same bootstrap, joined with
    the sunflower-reduced family of every small obstruction of the whole
    graph.  Returns ``(S, used_fallback)`` or ``(None, False)``."""
    try:
        boot = decide(g, k, node_limit)
    except SearchLimitExceeded:
        boot, fallback = sorted(greedy_modulator(g)), True
    else:
        if boot is None:
            return None, False
        fallback = False
    s = set(boot)
    for petal in sunflower_reduce(small_obstruction_family(g, g.vertices), k):
        s |= petal
    return s, fallback


def pendant_trees_by_copy(g: MultiGraph, x: int) -> list[list[int]]:
    """The pendant trees at x, nested ones included, read off an induced
    copy of the component of x minus x.  ``MultiGraph.pendant_trees`` finds
    the maximal ones in one leaf-stripping pass; in a component that is
    not a simple tree, the two agree at every x that lies in no pendant
    tree."""
    comp = set(g.component_of(x))
    comp.discard(x)
    if not comp:
        return []
    sub = g.induced(comp)
    pieces = sub.components()
    if len(pieces) < 2:
        return []
    out = []
    for piece in pieces:
        if not nx.is_tree(nx_multigraph(sub, piece)):
            continue
        links = [u for u in piece if g.has_edge(x, u)]
        if len(links) == 1 and g.multiplicity(x, links[0]) == 1:
            out.append(piece)
    return out


def validate_obstruction(g, obs) -> None:
    """Assert that an obstruction really occurs in multigraph ``g``."""
    vs = obs.vertices

    def edge(u, v):
        assert g.has_edge(u, v), (u, v, obs)

    def nonedge(u, v):
        assert not g.has_edge(u, v), (u, v, obs)

    if obs.kind == "double":
        u, v = vs
        assert g.multiplicity(u, v) >= 2
        return
    if obs.kind == "net":
        a, b, c, x, y, z = vs
        assert len(set(vs)) == 6
        for u, v in [(a, b), (a, c), (b, c), (a, x), (b, y), (c, z)]:
            edge(u, v)
        for u, v in [(x, y), (x, z), (y, z), (x, b), (x, c), (y, a), (y, c),
                     (z, a), (z, b)]:
            nonedge(u, v)
        return
    if obs.kind == "tent":
        a, b, c, x, y, z = vs
        assert len(set(vs)) == 6
        for u, v in [(a, b), (a, c), (b, c), (x, a), (x, b), (y, b), (y, c),
                     (z, c), (z, a)]:
            edge(u, v)
        for u, v in [(x, c), (y, a), (z, b), (x, y), (y, z), (x, z)]:
            nonedge(u, v)
        return
    if obs.kind == "hole":
        k = len(vs)
        assert k >= 4 and len(set(vs)) == k
        for i in range(k):
            for j in range(i + 1, k):
                if j - i == 1 or (i == 0 and j == k - 1):
                    edge(vs[i], vs[j])
                else:
                    nonedge(vs[i], vs[j])
        return
    if obs.kind == "claw+triangle":
        assert len(vs) == 7
        (center, *legs), t = vs[:4], vs[4:]
        assert len(set(vs[:4])) == 4
        for leg in legs:
            edge(center, leg)
        for i in range(3):
            for j in range(i + 1, 3):
                nonedge(legs[i], legs[j])
        assert len(set(t)) == 3
        for i in range(3):
            edge(t[i], t[(i + 1) % 3])
        assert g.component_of(center) == g.component_of(t[0])
        return
    raise AssertionError(f"unknown obstruction {obs!r}")


_NET = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
_TENT = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4), (2, 4),
                  (2, 5), (0, 5)])


def brute_net_tent_sets(adj, mask):
    """(kind, frozenset) pairs for every induced net or tent."""
    g = nx_from_adj(adj, mask)
    out = set()
    for sub in itertools.combinations(sorted(g.nodes), 6):
        h = g.subgraph(sub)
        m = h.number_of_edges()
        if m == 6 and nx.is_isomorphic(h, _NET):
            out.add(("net", frozenset(sub)))
        elif m == 9 and nx.is_isomorphic(h, _TENT):
            out.add(("tent", frozenset(sub)))
    return out


def random_interval_adj(rng, n: int) -> list[int]:
    """Intersection graph of n random intervals: chordal by construction."""
    spans = []
    for _ in range(n):
        lo = rng.uniform(0, 10)
        spans.append((lo, lo + rng.uniform(0.1, 3)))
    return adj_from_edges(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                              if spans[i][0] <= spans[j][1]
                              and spans[j][0] <= spans[i][1]])


def random_clique_tree_adj(rng, n: int) -> list[int]:
    """Each new vertex joins a clique of earlier ones (a random vertex and
    some of its earlier neighbors that are pairwise adjacent), so it is
    simplicial when added: chordal by construction, a tree of cliques."""
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        clique = 1 << u
        for w in range(v):
            joins = (adj[u] >> w) & 1 and adj[w] & clique == clique
            if joins and rng.random() < 0.5:
                clique |= 1 << w
        adj[v] = clique
        for w in range(v):
            if (clique >> w) & 1:
                adj[w] |= 1 << v
    return adj


def plant_cycle(adj: list[int], at: int, length: int) -> list[int]:
    """Extend ``adj`` by a chordless cycle through ``at`` whose other
    ``length - 1`` vertices are new; returns the cycle."""
    cycle = [at] + list(range(len(adj), len(adj) + length - 1))
    adj.extend([0] * (length - 1))
    for i, u in enumerate(cycle):
        w = cycle[(i + 1) % length]
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    return cycle


def unit_interval_graph(rng, n, spread):
    """Random unit interval (= proper interval) multigraph."""
    centers = sorted(rng.uniform(0, spread) for _ in range(n))
    g = MultiGraph()
    ids = [g.add_vertex() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if centers[j] - centers[i] <= 1.0:
                g.add_edge(ids[i], ids[j])
    return g


# ---------------------------------------------------------------------------
# the shapes of the benchmark corpora (see kbench/corpus.py)
# ---------------------------------------------------------------------------

def _add_unit_interval(g: MultiGraph, centres) -> list[int]:
    """Add a unit interval graph on the sorted ``centres`` to ``g``."""
    vs = [g.add_vertex() for _ in centres]
    for i, j in itertools.combinations(range(len(vs)), 2):
        if centres[j] - centres[i] <= 1.0:
            g.add_edge(vs[i], vs[j])
    return vs


def _add_tree(rng, g: MultiGraph, size: int) -> list[int]:
    """Add a random recursive tree on ``size`` vertices to ``g``."""
    vs = [g.add_vertex() for _ in range(size)]
    for i in range(1, size):
        g.add_edge(vs[rng.randrange(i)], vs[i])
    return vs


def planted_interval_graph(rng, body_size: int = 28
                           ) -> tuple[MultiGraph, int]:
    """A ``planted-interval`` instance: a vertex joined to the 8th and 22nd
    vertices of a unit-interval body of ``body_size`` >= 22 vertices
    (cliques of about eight), beside a random tree and a small
    unit-interval component.  Deleting the planted vertex solves it, with
    k = 1."""
    g = MultiGraph()
    x = g.add_vertex()
    body = _add_unit_interval(g, sorted(0.12 * i + rng.uniform(-0.05, 0.05)
                                        for i in range(body_size)))
    g.add_edge(x, body[7])
    g.add_edge(x, body[21])
    _add_tree(rng, g, rng.randint(10, 20))
    _add_unit_interval(g, sorted(rng.uniform(0.0, 3.0) for _ in range(10)))
    return g, 1


def planted_tree_graph(rng, tree_size: int = 22) -> tuple[MultiGraph, int]:
    """A ``planted-tree`` instance: two random trees of ``tree_size`` >= 6
    vertices grown from 5-edge spines, each closed into a hole by a
    planted vertex that also joins a unit-interval component of 3-4
    vertices.  Deleting the two planted vertices solves it, with k = 2."""
    g = MultiGraph()
    for _ in range(2):
        spine = [g.add_vertex() for _ in range(6)]
        for u, w in zip(spine, spine[1:]):
            g.add_edge(u, w)
        grown = list(spine)
        for _ in range(tree_size - len(spine)):
            v = g.add_vertex()
            g.add_edge(rng.choice(grown), v)
            grown.append(v)
        centres, c = [], 0.0
        for _ in range(rng.randint(3, 4)):
            centres.append(c)
            c += rng.uniform(0.3, 0.45)
        small = _add_unit_interval(g, centres)
        x = g.add_vertex()
        g.add_edge(x, spine[0])
        g.add_edge(x, spine[-1])
        g.add_edge(x, rng.choice(small))
    return g, 2


def tree_with_triangles(rng, tree_size: int = 60, triangles: int = 5
                        ) -> tuple[MultiGraph, int]:
    """A random recursive tree of ``tree_size`` vertices with ``triangles``
    triangles, each hung by one edge from a distinct tree vertex, and
    k = triangles - 1.  The one component holds a claw and every
    triangle, so the exact search branches over all of it."""
    g = MultiGraph()
    tree = _add_tree(rng, g, tree_size)
    for v in rng.sample(tree, triangles):
        a, b, c = (g.add_vertex() for _ in range(3))
        g.add_edge(v, a)
        for x, y in ((a, b), (b, c), (a, c)):
            g.add_edge(x, y)
    return g, triangles - 1


def rule14_adj(clique: int) -> list[int]:
    """Bitmask form of the rule-14 shape: a hub (position 0) over every
    other vertex of a clique on positions 1..clique, with a pendant vertex
    at the hub."""
    edges = list(itertools.combinations(range(1, clique + 1), 2))
    edges += [(0, v) for v in range(1, clique + 1, 2)]
    edges.append((0, clique + 1))
    return adj_from_edges(clique + 2, edges)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def parse_by_fields(text: str) -> tuple[MultiGraph, int]:
    """``cli.parse`` as it read every record before the common edge record
    skipped ``cli._integers``: each field of every record goes through
    it.  Kept as its oracle."""
    edges: list[tuple[int, int, int]] = []
    n = m = k = None
    records = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second problem line")
            if len(fields) != 5 or fields[1] != "pitvd":
                raise ParseError(f"line {lineno}: expected 'p pitvd n m k'")
            try:
                n, m, k = _integers(fields[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field")
            if n < 0 or m < 0 or k < 0:
                raise ParseError(f"line {lineno}: negative header field")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: {n} vertices exceed the "
                                 f"limit of {MAX_VERTICES}")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: expected 'e u v mult'")
            try:
                u, v, mult = _integers(fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge field")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: label out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at {u}")
            if mult < 1:
                raise ParseError(f"line {lineno}: multiplicity {mult} < 1")
            edges.append((u, v, mult))
            records += 1
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise ParseError("missing problem line")
    if records != m:
        raise ParseError(f"header announces {m} edge records, found {records}")
    return MultiGraph.from_edges(edges, range(1, n + 1)), k
