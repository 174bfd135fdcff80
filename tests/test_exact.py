from __future__ import annotations

import collections
import itertools
import random

import networkx as nx
import pytest

from pitvd import backend as bk
from pitvd import recognition as rec
from pitvd.audit import audit_violations
from pitvd.driver import kernelize
from pitvd.exact import DEFAULT_NODE_LIMIT, SearchLimitExceeded, decide
from pitvd.modulator import compute_base_set, greedy_modulator
from pitvd.multigraph import MultiGraph
from pitvd.rules import apply_ops, rule1_drop_clean_component

from conftest import (adj_from_edges, brute_claws, brute_triangles,
                      claw_triangle_span_by_layers, component_ok,
                      decide_unpruned, mask_of,
                      minimum_deletion, pitg_ok, planted_interval_graph,
                      planted_tree_graph, random_multigraph,
                      tree_with_triangles)


def mg(edges, vertices=()):
    return MultiGraph.from_edges(edges, vertices=vertices)


def brute_decide(g: MultiGraph, k: int) -> bool:
    """Subset enumeration against the characterization, no recognizer."""
    verts = g.vertices
    for size in range(min(k, len(verts)) + 1):
        for cand in itertools.combinations(verts, size):
            h = g.induced(set(verts) - set(cand))
            if h.double_edges():
                continue
            ids, _, adjm = h.compact()
            if pitg_ok(adjm, (1 << len(ids)) - 1):
                return True
    return False


def test_clean_graph_needs_nothing():
    assert decide(mg([(0, 1), (1, 2)]), 0) == []


def test_negative_budget_has_no_solution():
    assert decide(mg([(0, 1), (1, 2)]), -1) is None


def test_single_hole():
    g = mg([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert decide(g, 0) is None
    sol = decide(g, 1)
    assert sol is not None and len(sol) == 1


def test_double_edge():
    g = mg([(0, 1, 2), (1, 2)])
    assert decide(g, 0) is None
    assert len(decide(g, 1)) == 1


def test_two_disjoint_holes():
    g = mg([(0, 1), (1, 2), (2, 3), (3, 0),
            (10, 11), (11, 12), (12, 13), (13, 10)])
    assert decide(g, 1) is None
    assert len(decide(g, 2)) == 2


def test_claw_triangle_component():
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    assert decide(g, 0) is None
    sol = decide(g, 1)
    assert sol is not None and len(sol) == 1


def test_long_hole():
    g = mg([(i, (i + 1) % 8) for i in range(8)])
    assert decide(g, 0) is None
    assert len(decide(g, 1)) == 1


def test_net_plus_hole_needs_two():
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5),
            (10, 11), (11, 12), (12, 13), (13, 10)])
    assert decide(g, 1) is None
    assert len(decide(g, 2)) == 2


def test_matches_bruteforce_random():
    rng = random.Random(4)
    for _ in range(120):
        g = random_multigraph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.6),
                              double_frac=0.15)
        k = rng.randint(0, 3)
        got = decide(g, k)
        assert (got is not None) == brute_decide(g, k), (g, k)
        if got is not None:
            assert len(got) <= k


def test_minimum_deletion():
    g = mg([(0, 1), (1, 2), (2, 3), (3, 0)])
    size, sol = minimum_deletion(g)
    assert size == 1 and len(sol) == 1
    rng = random.Random(21)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 6), 0.5, double_frac=0.2)
        size, sol = minimum_deletion(g)
        assert brute_decide(g, size)
        assert size == 0 or not brute_decide(g, size - 1)


def test_node_limit_enforced():
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)
             if (i + j) % 3]
    g = mg(edges)
    with pytest.raises(SearchLimitExceeded):
        decide(g, 4, node_limit=10)


def test_solutions_are_deterministic():
    g = mg([(0, 1), (1, 2), (2, 3), (3, 0), (1, 4, 2)])
    assert decide(g, 2) == decide(g, 2)


def test_search_copies_no_graph(monkeypatch):
    """The exact search and the greedy fallback keep only the deleted set:
    neither copies the graph nor builds an induced subgraph."""
    copies = []
    for name in ("copy", "induced"):
        orig = getattr(MultiGraph, name)

        def counted(self, *args, name=name, orig=orig):
            copies.append(name)
            return orig(self, *args)

        monkeypatch.setattr(MultiGraph, name, counted)
    rng = random.Random(8)
    branched = 0
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(4, 9), 0.45, double_frac=0.15)
        sol = decide(g, 3)
        branched += bool(sol)
        greedy_modulator(g)
    # a claw plus a triangle: the search branches over a whole component
    decide(mg([(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)]), 1)
    assert branched and copies == []


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """One deleted vertex per level: 150 disjoint 4-cycles need a search
    150 levels deep, which must not cost 150 stack frames."""
    import inspect
    import sys

    edges = [(b + i, b + (i + 1) % 4) for b in range(0, 600, 4)
             for i in range(4)]
    g = mg(edges)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        sol = decide(g, 150)
    finally:
        sys.setrecursionlimit(old)
    assert sol is not None and len(sol) == 150


def side_by_side(*graphs: MultiGraph) -> MultiGraph:
    """Disjoint union, each graph's ids shifted past the previous ones."""
    edges, verts, off = [], [], 0
    for h in graphs:
        edges += [(u + off, v + off, m) for u, v, m in h.edges()]
        verts += [v + off for v in h.vertices]
        off += max(h.vertices, default=-1) + 1
    return mg(edges, verts)


def claw_triangle(rng) -> MultiGraph:
    """A triangle with 2-4 legs at one corner and up to two more pendant
    vertices, labels shuffled: a claw and a triangle in one component."""
    legs = rng.randint(2, 4)
    edges = [(0, 1), (1, 2), (0, 2)] + [(0, 3 + i) for i in range(legs)]
    n = 3 + legs
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.randrange(n), n))
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return mg([(perm[u], perm[v]) for u, v in edges], range(n))


def mixed_instance(rng, i: int) -> MultiGraph:
    """A random multigraph with doubled edges; two or three of them side
    by side; or claw-plus-triangle components, maybe beside a random one."""
    if i % 3 == 0:
        return random_multigraph(rng, rng.randint(3, 12),
                                 rng.uniform(0.15, 0.6), double_frac=0.15)
    if i % 3 == 1:
        return side_by_side(*(
            random_multigraph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.7),
                              double_frac=0.15)
            for _ in range(rng.randint(2, 3))))
    parts = [claw_triangle(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        parts.append(random_multigraph(rng, rng.randint(2, 6), 0.4,
                                       double_frac=0.15))
    rng.shuffle(parts)
    return side_by_side(*parts)


def test_pruned_search_returns_the_unpruned_first_solution():
    """The bad-component bound cuts only subtrees without a solution, so
    the search returns exactly what the unpruned search returns."""
    rng = random.Random(10)
    compared = several_bad = 0
    for i in range(1100):
        g = mixed_instance(rng, i)
        k = rng.randint(0, 5)
        try:
            want = decide_unpruned(g, k, node_limit=20_000)
        except SearchLimitExceeded:
            continue
        assert decide(g, k) == want, (i, sorted(g.edges()), k)
        compared += 1
        bad = sum(not rec.component_clean(g, comp) for comp in g.components())
        several_bad += bad >= 2
    assert compared >= 1000
    assert several_bad >= 200


def test_more_bad_components_than_k_is_decided_at_once():
    """12 disjoint 4-cycles need 12 deletions: with k = 11 the answer is no
    at the root, not a blown node budget and a greedy base set."""
    g = mg([(b + i, b + (i + 1) % 4) for b in range(0, 48, 4)
            for i in range(4)])
    assert decide(g, 11, node_limit=2000) is None
    assert compute_base_set(g, 11, node_limit=2000) == (None, False)
    assert kernelize(g, 11, node_limit=2000).decided_no


def test_search_size_beside_a_second_bad_component(monkeypatch):
    """B, a claw plus a triangle whose six leaves carry the smallest ids,
    beside A, a 7-hole.  Deleting a leaf leaves B bad, so with k = 2 every
    such child holds two bad components and one deletion: it is closed
    without a witness, instead of re-solving B under it.  With k = 1 the
    root is closed the same way."""
    leaves = 6
    hub, y, z = leaves, leaves + 1, leaves + 2
    b_edges = [(hub, v) for v in range(leaves)] + [(hub, y), (y, z), (hub, z)]
    hole = list(range(leaves + 3, leaves + 10))
    a_edges = [(u, hole[(i + 1) % 7]) for i, u in enumerate(hole)]
    g = mg(b_edges + a_edges)
    size_a, size_b = len(hole), leaves + 3

    witnesses = []
    orig = rec.witness

    def spy(adjm, comp, **kw):
        witnesses.append(comp)
        return orig(adjm, comp, **kw)

    monkeypatch.setattr(rec, "witness", spy)
    assert decide(g, 1) is None
    assert witnesses == []
    assert decide(g, 2, node_limit=size_a + size_b + 3) == [hub, hole[0]]


def test_no_deleted_set_is_searched_twice(monkeypatch):
    """A failed candidate is banned in its later siblings' subtrees, so
    one search never reaches the same alive set twice: the memo it
    replaced is not needed.  The closing validation reads the search's
    view too, so the calls made under ``rec.is_pitg`` are not nodes and
    are skipped."""
    searched, validated = [], []
    validating = []
    orig, is_pitg = rec.bad_components, rec.is_pitg

    def spy(adjm, dirty, mask, stop):
        (validated if validating else searched).append((id(adjm), mask))
        return orig(adjm, dirty, mask, stop)

    def validation(*args):
        validating.append(True)
        try:
            return is_pitg(*args)
        finally:
            validating.pop()

    monkeypatch.setattr(rec, "bad_components", spy)
    monkeypatch.setattr(rec, "is_pitg", validation)
    rng = random.Random(11)
    instances = [(mixed_instance(rng, i), rng.randint(2, 8))
                 for i in range(300)]
    # denser graphs, where overlapping witnesses make permutations common
    instances += [(random_multigraph(rng, rng.randint(8, 12),
                                     rng.uniform(0.3, 0.6), double_frac=0.1),
                   rng.randint(2, 6)) for _ in range(100)]
    branched = 0
    for g, k in instances:
        searched.clear()
        validated.clear()
        try:
            decide(g, k, node_limit=20_000)
        except SearchLimitExceeded:
            continue
        assert len(set(searched)) == len(searched), (sorted(g.edges()), k)
        # the calls of bad_components, the closing validation's included
        branched += len(searched) + len(validated) > 2
    assert branched >= 300


def test_search_compacts_the_graph_once(monkeypatch):
    """A parallel edge beside two 4-cycles: every node holds a parallel
    pair or two bad components, and none of them compacts the graph again.
    The graph's kept view serves the search and its closing validation,
    and a second search on the unedited graph reads it too."""
    g = mg([(0, 1, 2), (1, 2)]
           + [(b + i, b + (i + 1) % 4) for b in (10, 20) for i in range(4)])
    calls = []
    orig = MultiGraph.compact

    def counted(self, *args):
        calls.append(args)
        return orig(self, *args)

    monkeypatch.setattr(MultiGraph, "compact", counted)
    assert decide(g, 2) is None
    assert len(calls) == 1
    calls.clear()
    sol = decide(g, 3)
    assert sol is not None and len(sol) == 3
    assert calls == []


#: gadget -> (vertex count, edges, exit vertex); every gadget is entered
#: at its vertex 0.  The tent is the triangle 1, 2, 3 with vertex 0 over
#: 1-2, vertex 4 over 2-3 and vertex 5 over 3-1; the net is the triangle
#: 0, 1, 2 with the pendant vertices 3, 4 and 5.
GADGETS = {
    "hole": (6, [(j, (j + 1) % 6) for j in range(6)], 3),
    "tent": (6, [(1, 2), (2, 3), (1, 3), (0, 1), (0, 2), (2, 4), (3, 4),
                 (1, 5), (3, 5)], 4),
    "net": (6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)], 4),
    "double": (2, [(0, 1, 2)], 1),
}


def ring_of_gadgets(h: int, gadget: str = "hole") -> MultiGraph:
    """h copies of a gadget in a ring, each joined to the next by a
    3-vertex path from its exit vertex to the next copy's vertex 0.

    The copies are disjoint obstructions, so h deletions are needed.  h
    suffice: deleting vertex 0 of every copy breaks the long cycle around
    the ring and leaves each copy's rest, with the path hanging from its
    exit, a tree (hole, net, doubled edge) or a proper interval graph
    (tent: a triangle with two ears and the path at one ear's tip).
    """
    size, gadget_edges, exit_ = GADGETS[gadget]
    edges = [(size * i + u, size * i + v, *m)
             for i in range(h) for u, v, *m in gadget_edges]
    for i in range(h):
        p = size * h + 3 * i
        edges += [(size * i + exit_, p), (p, p + 1), (p + 1, p + 2),
                  (p + 2, size * ((i + 1) % h))]
    return mg(edges)


@pytest.mark.parametrize("h", [3, 4, 5])
def test_ring_of_holes(h):
    """No by construction with k = h - 1, proved by exhausting the search;
    at h = 5 within the 1,555 nodes the memoized search needed."""
    g = ring_of_gadgets(h)
    assert decide(g, h - 1, node_limit=1555) is None
    sol = decide(g, h)
    assert sol is not None and len(sol) == h
    assert all(set(sol) & set(range(6 * i, 6 * i + 6)) for i in range(h))


@pytest.mark.parametrize("gadget", sorted(GADGETS))
@pytest.mark.parametrize("h", [3, 4, 5])
def test_ring_of_gadgets_through_kernelize(gadget, h):
    """One budget short, the kernelizer rejects the ring or leaves a
    kernel the search proves a no; at the full budget it keeps a kernel
    that audits clean."""
    g = ring_of_gadgets(h, gadget)
    res = kernelize(g, h - 1)
    assert res.decided_no or decide(res.graph, res.k) is None
    res = kernelize(g, h)
    assert not res.decided_no
    assert audit_violations(res.graph, res.k) == []


def test_untouched_components_are_recognized_once(monkeypatch):
    """A node recognizes only the pieces of the bad component it deleted
    from, so clean paths beside a ring of holes are recognized once per
    search, at the root, however many nodes the search visits."""
    calls = []
    orig = rec._tree_or_pig

    def counted(adjm, comp):
        calls.append(comp)
        return orig(adjm, comp)

    monkeypatch.setattr(rec, "_tree_or_pig", counted)
    counts = []
    for paths in (0, 50):
        ring = ring_of_gadgets(4)
        base = ring.n
        edges = list(ring.edges())
        edges += [(base + 3 * i + j, base + 3 * i + j + 1)
                  for i in range(paths) for j in range(2)]
        calls.clear()
        assert decide(mg(edges), 3) is None
        counts.append(len(calls))
    assert counts[0] > 50
    assert counts[1] <= counts[0] + 50


def judged_by_rule1(g: MultiGraph) -> MultiGraph:
    """A copy of g after rule 1 has run to exhaustion: the clean
    components are gone and every other one carries its verdict."""
    g = g.copy()
    while (app := rule1_drop_clean_component(g, 0)) is not None:
        apply_ops(g, app.ops)
    assert g.judged_components() == g.components()
    return g


def test_search_from_rule1_verdicts_matches_a_fresh_search():
    """The root starts from the components rule 1 judged not clean, and
    the answer is the one a copy without verdicts gets, on yes- and
    no-instances and under a small node budget alike."""
    rng = random.Random(19)
    seen = {"yes": 0, "no": 0, "limit": 0}
    for i in range(500):
        g = judged_by_rule1(mixed_instance(rng, i))
        k = rng.randint(0, 5)
        for limit in (DEFAULT_NODE_LIMIT, 4):
            try:
                want = decide(g.copy(), k, node_limit=limit)
            except SearchLimitExceeded:
                with pytest.raises(SearchLimitExceeded):
                    decide(g, k, node_limit=limit)
                seen["limit"] += 1
                continue
            assert decide(g, k, node_limit=limit) == want, (i, k)
            seen["no" if want is None else "yes"] += 1
    assert min(seen.values()) >= 30, seen


def test_search_recognizes_no_judged_component(monkeypatch):
    """Judged bad components reach neither the recognizer nor, with more
    of them than k, the compaction; the unjudged rest is recognized."""
    g = judged_by_rule1(side_by_side(ring_of_gadgets(3), claw_triangle(
        random.Random(5)), mg([(0, 1, 2)])))
    judged = g.judged_components()
    assert len(judged) == 3
    # a clean path and a 4-cycle added after the verdicts stay unjudged
    fresh = [g.add_vertex() for _ in range(7)]
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)]:
        g.add_edge(fresh[u], fresh[v])
    ids = g.vertices
    masks = {sum(1 << ids.index(v) for v in comp) for comp in judged}
    calls = []
    orig = rec._tree_or_pig

    def counted(adjm, comp):
        calls.append(comp)
        return orig(adjm, comp)

    want = decide(g.copy(), 4)
    monkeypatch.setattr(rec, "_tree_or_pig", counted)
    assert decide(g, 4) == want
    assert calls and not masks.intersection(calls)
    assert sum(1 << ids.index(v) for v in fresh[:3]) in calls

    compacted = []
    monkeypatch.setattr(MultiGraph, "compact",
                        lambda self, *a: compacted.append(a))
    calls.clear()
    assert decide(g, 2) is None
    assert compacted == [] and calls == []


def gadget_with_cycle(rng) -> MultiGraph:
    """A net or a tent with a 4-6 cycle through one of its vertices and
    0-3 random chords, labels shuffled: holes and a net or tent that
    share a vertex, so the two witness orders pick different ones."""
    size, gadget_edges, _ = GADGETS[rng.choice(["net", "tent"])]
    edges = {(u, v) for u, v in gadget_edges}
    length = rng.randint(4, 6)
    cycle = [rng.randrange(size), *range(size, size + length - 1)]
    n = size + length - 1
    edges |= {tuple(sorted((u, cycle[(i + 1) % length])))
              for i, u in enumerate(cycle)}
    chords = [(u, v) for u, v in itertools.combinations(range(n), 2)
              if (u, v) not in edges]
    edges.update(rng.sample(chords, rng.randint(0, 3)))
    perm = list(range(n))
    rng.shuffle(perm)
    return mg([(perm[u], perm[v]) for u, v in edges], range(n))


def counting_visits(monkeypatch) -> list[int]:
    """Count search nodes as ``bad_components`` calls: one per visit,
    plus one for a yes-instance's closing validation."""
    visits = [0]
    orig = rec.bad_components

    def counted(*args):
        visits[0] += 1
        return orig(*args)

    monkeypatch.setattr(rec, "bad_components", counted)
    return visits


def plain_candidates(adjm, comp) -> list[int]:
    """What a node branches on through the plain ``witness``."""
    obs = rec.witness(adjm, comp)
    return (list(bk.bits(comp)) if obs.kind == "claw+triangle"
            else sorted(obs.vertices))


def test_tight_nodes_keep_the_unpruned_first_solution(monkeypatch):
    """A node with as many bad components as deletions left branches on
    ``tight_candidates``: a hole of at most 6 vertices, a longer one cut
    down to a claw-and-triangle span, a net or a tent.  Below it each bad
    component loses exactly one vertex, so only the v whose removal
    cleans the first one survive, and every such set holds all of them:
    the search returns the plain order's first solution, though most
    tight nodes branch on another set, and the search does not grow."""
    differ = [0]
    orig = rec.tight_candidates

    def spy(adjm, comp):
        got = orig(adjm, comp)
        differ[0] += got is not None and got != plain_candidates(adjm, comp)
        return got

    rng = random.Random(24)
    graphs = []
    for _ in range(400):
        parts = rng.randint(1, 3)
        graphs.append((side_by_side(*(gadget_with_cycle(rng)
                                      for _ in range(parts))), parts))
    wants = [[decide_unpruned(g, k) for k in (p - 1, p, p + 1)]
             for g, p in graphs]
    monkeypatch.setattr(rec, "tight_candidates", spy)
    visits = counting_visits(monkeypatch)
    for (g, parts), want in zip(graphs, wants):
        got = [decide(g, k) for k in (parts - 1, parts, parts + 1)]
        assert got == want, sorted(g.edges())
    # 2,519 of the 3,438 tight nodes branch on a set of their own
    assert differ[0] >= 1000
    # 19,410 visits in the plain order, 17,493 with short holes first,
    # 17,269 on the tight candidates
    assert visits[0] <= 18_000


def bad_components_brute():
    """(adjm, component) for every bad component of every atlas graph on
    at most 7 vertices, of 400 ``gadget_with_cycle`` graphs and of ten
    ``planted-tree`` instances, whose 7-holes carry claws and triangles."""
    graphs = [adj_from_edges(h.number_of_nodes(), h.edges)
              for h in nx.graph_atlas_g()[1:]]
    rng = random.Random(24)
    graphs += [gadget_with_cycle(rng).compact()[2] for _ in range(400)]
    graphs += [planted_tree_graph(random.Random(seed))[0].compact()[2]
               for seed in range(10)]
    for adj in graphs:
        for comp in bk.comp_masks(adj, mask_of(len(adj))):
            if not component_ok(adj, comp):
                yield adj, comp


def test_tight_candidates_hold_every_cleaning_vertex():
    """The lemma behind tight nodes, by brute force.  For a bad component
    C, Sol (every v with C - v clean) lies inside the candidates, or the
    plain witness's where ``tight_candidates`` leaves C to it.  A
    claw-and-triangle span H is a connected part of C with an induced
    claw and a triangle, and it holds Sol; a candidate set longer than 6,
    a long hole cut down, lies inside H."""
    seen = collections.Counter()
    for adj, comp in bad_components_brute():
        sol = [v for v in bk.bits(comp) if pitg_ok(adj, comp & ~(1 << v))]
        got = rec.tight_candidates(adj, comp)
        cands = plain_candidates(adj, comp) if got is None else got
        assert set(sol) <= set(cands), (adj, comp)
        span = rec.claw_triangle_span(adj, comp)
        assert span == claw_triangle_span_by_layers(adj, comp), (adj, comp)
        if span:
            assert span & ~comp == 0
            assert bk.reach(adj, span & -span, span) == span, (adj, span)
            assert brute_claws(adj, span) and brute_triangles(adj, span)
            assert all((span >> v) & 1 for v in sol)
        if got is not None and len(got) > 6:
            assert set(got) <= set(bk.bits(span)), (adj, comp)
        fail = bk.chordal_fail(adj, comp)
        hole = () if fail is None else rec.find_hole(adj, comp, fail)
        seen["long hole" if len(hole) > 6 else "hole" if hole else "chordal",
             got is None, bool(span)] += 1
    assert set(seen) >= {("hole", False, True), ("hole", False, False),
                         ("long hole", False, True), ("long hole", True, False),
                         ("chordal", False, True)}, seen


def test_tight_nodes_branch_on_a_claw_and_triangle_span(monkeypatch):
    """On the tree-plus-triangles family a tight node branches on a
    claw-and-triangle span, not on the whole component: 1,185 visits
    where branching over every vertex takes 3,100."""
    visits = counting_visits(monkeypatch)
    for tree_size in (8, 12, 16, 20, 30):
        for t in (2, 3):
            for seed in range(3):
                g, k = tree_with_triangles(random.Random(seed), tree_size, t)
                for kk in (k, k + 1):
                    decide(g, kk)
    assert visits[0] <= 1_600


@pytest.mark.parametrize("seed", range(4))
def test_planted_interval_search_scans_no_net_or_tent(monkeypatch, seed):
    """The planted-interval root is tight and the hole its chordality
    check closes is a short one through the planted vertex, so no scan
    outside the base-set stage walks the triangles of the unit-interval
    body."""
    g, k = planted_interval_graph(random.Random(seed))
    scans = []
    orig = bk.net_tent_witnesses

    def spy(adj, mask, find_all, anchors=None):
        scans.append(anchors)
        return orig(adj, mask, find_all, anchors)

    monkeypatch.setattr(bk, "net_tent_witnesses", spy)
    assert decide(g, k) is not None
    assert None not in scans


#: search visits of ``decide(ring_of_gadgets(h, gadget), h - 1)`` in the
#: plain witness order; the tight candidates must not raise them, so a
#: long hole with no claw-and-triangle span is left to the plain witness
#: (branching on it would give 6,752 visits in place of 5,306 for tents
#: at h = 6)
RING_VISITS = {"hole": (43, 259, 1555), "tent": (38, 198, 1024),
               "net": (40, 205, 984)}


@pytest.mark.parametrize("gadget", sorted(RING_VISITS))
@pytest.mark.parametrize("h", [3, 4, 5])
def test_tight_nodes_do_not_grow_the_rings(monkeypatch, gadget, h):
    visits = counting_visits(monkeypatch)
    assert decide(ring_of_gadgets(h, gadget), h - 1) is None
    assert visits[0] <= RING_VISITS[gadget][h - 3]


def test_tree_with_triangles_matches_the_unpruned_search():
    """The tree-plus-triangles family, where the search branches over a
    whole claw+triangle component, at sizes the unpruned oracle finishes:
    both searches give the same first solution at k = t - 1 and k = t."""
    for tree_size in (8, 12, 16, 20):
        for t in (2, 3):
            for seed in range(3):
                g, k = tree_with_triangles(random.Random(seed), tree_size, t)
                for kk in (k, k + 1):
                    assert decide(g, kk) == decide_unpruned(g, kk), (
                        tree_size, t, seed, kk)
