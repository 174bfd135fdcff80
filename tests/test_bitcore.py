"""Bitmask-primitive tests: the primitives against independent oracles.

``pitvd.backend`` is taken as subject; networkx and itertools brute force
as judge.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

import pytest

from pitvd import backend as P
from pitvd.recognition import find_hole, pig_order

from conftest import (
    adj_from_edges,
    all_graphs,
    brute_claws,
    brute_induced_cycles,
    brute_net_tent_sets,
    brute_triangles,
    component_ok,
    lbfs_by_lists,
    mask_of,
    net_tent_witnesses_unpruned,
    nx_from_adj,
    pig_order_bruteforce,
    plant_cycle,
    planted_interval_graph,
    planted_tree_graph,
    random_adj,
    random_clique_tree_adj,
    random_interval_adj,
    rule14_adj,
    shift_adj,
    small_cycles_unpruned,
    umbrella_ok_by_positions,
)

N_SMALL = 5


def check_triangle(adj, mask):
    got = P.find_triangle(adj, mask)
    want = brute_triangles(adj, mask)
    if got is None:
        assert not want
    else:
        a, b, c = got
        assert (a, b, c) in want


def check_claw(adj, mask):
    got = P.find_claw(adj, mask)
    want = brute_claws(adj, mask)
    if got is None:
        assert not want
    else:
        c, a, b, d = got
        assert any(set(w[1:]) == {a, b, d} and w[0] == c for w in want)


def check_chordal(adj, mask):
    fail = P.chordal_fail(adj, mask)
    g = nx_from_adj(adj, mask)
    if g.number_of_nodes() == 0:
        assert fail is None
        return
    if fail is None:
        assert nx.is_chordal(g)
    else:
        assert not nx.is_chordal(g)
        v, x, y = fail
        assert (adj[v] >> x) & 1 and (adj[v] >> y) & 1
        assert not (adj[x] >> y) & 1


def check_small_cycles(adj, mask, anchors):
    """``small_cycles`` rooted at every vertex of ``mask`` and rooted at
    ``anchors``: exactly the induced 4-6 cycles that meet the roots, each
    once, starting at its first root and listed in the pre-order of the
    DFS (by the path without its closing vertex, then by that vertex)."""
    want = brute_induced_cycles(adj, mask)
    for roots in (mask, anchors):
        got = P.small_cycles(adj, mask, roots, True)
        # every reported tuple is an induced cycle in the stated order
        for cyc in got:
            k = len(cyc)
            assert 4 <= k <= 6
            assert cyc[0] == min(v for v in cyc if (roots >> v) & 1)
            assert cyc[1] < cyc[-1]
            for i, u in enumerate(cyc):
                for j in range(i + 1, k):
                    adjacent = bool((adj[u] >> cyc[j]) & 1)
                    consecutive = (j - i == 1) or (i == 0 and j == k - 1)
                    assert adjacent == consecutive
        assert got == sorted(got, key=lambda c: (c[:-1], c[-1]))
        assert len({frozenset(c) for c in got}) == len(got)
        assert {frozenset(c) for c in got} == {
            c for c in want if any((roots >> v) & 1 for v in c)}


def check_component_ok(adj, mask):
    for comp in P.comp_masks(adj, mask):
        nv = comp.bit_count()
        is_tree = P.count_edges(adj, comp) == nv - 1
        has_order = pig_order_bruteforce(adj, comp) is not None
        assert component_ok(adj, comp) == (is_tree or has_order)


def test_shortest_path_against_a_list_bfs():
    """``shortest_path`` on seeded random graphs, masks, sources and
    targets, against a BFS over neighbour lists: a path of the least
    length, from the lowest target at that distance, stepping each time
    to the lowest neighbour one layer nearer the sources, and ``[]``
    when no target is in reach."""
    rng = random.Random(531)
    found = missed = 0
    for _ in range(600):
        n = rng.randint(1, 14)
        adj = random_adj(rng, n, rng.uniform(0.05, 0.5))
        members = [v for v in range(n) if rng.random() < 0.8]
        if not members:
            continue
        mask = sum(1 << v for v in members)
        sources = rng.sample(members, rng.randint(1, min(3, len(members))))
        targets = rng.sample(range(n), rng.randint(1, min(3, n)))
        dist = {s: 0 for s in sources}
        queue = list(sources)
        for u in queue:
            for w in members:
                if (adj[u] >> w) & 1 and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        path = P.shortest_path(adj, sum(1 << s for s in sources),
                               sum(1 << t for t in targets), mask)
        reached = [t for t in targets if t in dist]
        if not reached:
            assert path == [], (adj, mask, sources, targets)
            missed += 1
            continue
        d = min(dist[t] for t in reached)
        assert len(path) == d + 1
        assert path[0] == min(t for t in reached if dist[t] == d)
        for a, b in zip(path, path[1:]):
            assert b == min(w for w in members if (adj[a] >> w) & 1
                            and dist.get(w) == dist[a] - 1)
        assert path[-1] in sources
        found += 1
    assert found > 300 and missed > 30, (found, missed)


def test_exhaustive_small_graphs():
    """All graphs on up to N_SMALL vertices against the brute oracles.

    Includes the characterization check: a connected component is accepted
    exactly when it is a tree or admits an umbrella ordering.
    """
    rng = random.Random(5)
    for n in range(N_SMALL + 1):
        full = mask_of(n)
        for adj in all_graphs(n):
            check_triangle(adj, full)
            check_claw(adj, full)
            check_chordal(adj, full)
            check_small_cycles(adj, full, rng.getrandbits(n) if n else 0)
            check_component_ok(adj, full)


def test_random_medium_graphs_against_oracles():
    rng = random.Random(42)
    for trial in range(150):
        n = rng.choice([6, 7, 8])
        adj = random_adj(rng, n, rng.choice([0.2, 0.4, 0.6]))
        full = mask_of(n)
        check_triangle(adj, full)
        check_claw(adj, full)
        check_chordal(adj, full)
        check_small_cycles(adj, full, rng.getrandbits(n))
        check_component_ok(adj, full)
        got = {(kind, frozenset(t)) for kind, t in
               P.net_tent_witnesses(adj, full, True)}
        assert got == brute_net_tent_sets(adj, full)


def test_net_tent_fixed_instances():
    net = adj_from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    out = P.net_tent_witnesses(net, mask_of(6), True)
    assert out == [("net", (0, 1, 2, 3, 4, 5))]
    tent = adj_from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4),
                              (2, 4), (2, 5), (0, 5)])
    out = P.net_tent_witnesses(tent, mask_of(6), True)
    assert len(out) == 1
    kind, (a, b, c, x, y, z) = out[0]
    assert kind == "tent"
    assert {a, b, c} == {0, 1, 2}
    # bull = net missing one pendant: neither net nor tent
    bull = adj_from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
    assert P.net_tent_witnesses(bull, mask_of(5), True) == []


def test_net_tent_respects_mask():
    net = adj_from_edges(7, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5),
                             (5, 6)])
    full = mask_of(7)
    assert P.net_tent_witnesses(net, full, True)
    # masking out one pendant leg kills the net
    assert P.net_tent_witnesses(net, full & ~(1 << 3), True) == []


def test_net_tent_first_witness_is_first_net_else_first_tent():
    """``find_all=False`` answers from the same scan as the full list: the
    first net when there is one, else the first tent."""
    rng = random.Random(4242)
    seen = set()
    for _ in range(600):
        n = rng.randint(6, 11)
        adj = random_adj(rng, n, rng.choice([0.3, 0.45, 0.6]))
        mask = mask_of(n) & (rng.getrandbits(n) if rng.random() < 0.3 else -1)
        every = P.net_tent_witnesses(adj, mask, True)
        want = ([w for w in every if w[0] == "net"][:1]
                or [w for w in every if w[0] == "tent"][:1])
        assert P.net_tent_witnesses(adj, mask, False) == want
        seen.add(tuple(sorted({kind for kind, _ in every})))
    assert {("net",), ("tent",), ("net", "tent"), ()} <= seen


def whole_view(g):
    """The bitmask view of a ``MultiGraph`` and the mask of all of it."""
    ids, _, adj = g.view()
    return adj, (1 << len(ids)) - 1


def test_net_tent_pruning_keeps_the_unpruned_output():
    """Skipping the triangle edges without a private neighbour on each
    side, and the triangles whose triple searches would start on an
    empty set, changes neither the list nor its order, with or without
    ``find_all``: on random graphs, on unit-interval bodies with pendant
    vertices, on the rule-14 shape of a hub over half a big clique, and
    on planted-interval instances whose planted vertex closes 172 nets."""
    rng = random.Random(1414)
    cases = []
    for _ in range(400):
        n = rng.randint(6, 12)
        adj = random_adj(rng, n, rng.choice([0.3, 0.45, 0.6, 0.8]))
        mask = mask_of(n) & (rng.getrandbits(n) if rng.random() < 0.3 else -1)
        cases.append((adj, mask))
    for _ in range(20):
        centres = sorted(0.12 * i + rng.uniform(-0.05, 0.05)
                         for i in range(rng.randint(10, 28)))
        body = len(centres)
        edges = [(i, j) for i, j in itertools.combinations(range(body), 2)
                 if centres[j] - centres[i] <= 1.0]
        hang = rng.randint(0, 6)
        edges += [(body + i, rng.randrange(body)) for i in range(hang)]
        cases.append((adj_from_edges(body + hang, edges), mask_of(body + hang)))
    cases += [(rule14_adj(size), mask_of(size + 2)) for size in (55, 60)]
    planted = [whole_view(planted_interval_graph(random.Random(52), body)[0])
               for body in (60, 120)]
    kinds = set()
    for adj, mask in cases + planted:
        every = P.net_tent_witnesses(adj, mask, True)
        assert every == net_tent_witnesses_unpruned(adj, mask, True)
        assert (P.net_tent_witnesses(adj, mask, False)
                == net_tent_witnesses_unpruned(adj, mask, False))
        kinds.update(kind for kind, _ in every)
    assert kinds == {"net", "tent"}
    assert [len(P.net_tent_witnesses(adj, mask, True))
            for adj, mask in planted] == [172, 172]


def test_anchored_net_tent_scan_keeps_the_nets_and_tents_that_meet_it():
    """With anchors, the scan lists the unpruned scan's nets and tents
    whose six vertices meet them, in the same order; without find_all it
    gives the first such net, else the first such tent.  ``anchors=None``
    is the plain scan."""
    rng = random.Random(1919)
    met = missed = 0
    for _ in range(500):
        n = rng.randint(6, 12)
        adj = random_adj(rng, n, rng.choice([0.3, 0.45, 0.6, 0.8]))
        mask = mask_of(n) & (rng.getrandbits(n) if rng.random() < 0.3 else -1)
        anchors = rng.choice([0, 1 << rng.randrange(n),
                              rng.getrandbits(n) & rng.getrandbits(n),
                              rng.getrandbits(n)])
        every = net_tent_witnesses_unpruned(adj, mask, True)
        want = [(kind, t) for kind, t in every
                if sum(1 << v for v in t) & anchors]
        assert P.net_tent_witnesses(adj, mask, True, anchors) == want
        first = ([w for w in want if w[0] == "net"][:1]
                 or [w for w in want if w[0] == "tent"][:1])
        assert P.net_tent_witnesses(adj, mask, False, anchors) == first
        assert P.net_tent_witnesses(adj, mask, True, None) == every
        assert (P.net_tent_witnesses(adj, mask, False, None)
                == net_tent_witnesses_unpruned(adj, mask, False))
        met += len(want)
        missed += len(every) - len(want)
    assert met and missed


def count_triple_searches(monkeypatch) -> list:
    """Record the arguments of every ``_independent_triples`` call."""
    triples = P._independent_triples
    calls = []

    def counted(*args):
        calls.append(args)
        return triples(*args)

    monkeypatch.setattr(P, "_independent_triples", counted)
    return calls


def test_net_tent_scan_skips_the_clique_edges_of_the_rule14_shape(
        monkeypatch):
    """On a hub over every other vertex of a 56-clique, only the edges at
    the hub have a private neighbour on each side, so the full scan asks
    for independent triples at most n^2 times, not once per triangle.
    With a pendant vertex planted at two odd clique vertices, the hub
    triangle (0, 1, 3) becomes the one net, and the scan searches its
    triples to find it."""
    calls = count_triple_searches(monkeypatch)
    adj = rule14_adj(56)
    n = len(adj)
    assert P.net_tent_witnesses(adj, mask_of(n), True) == []
    assert len(calls) <= n * n
    adj += [1 << 1, 1 << 3]
    adj[1] |= 1 << n
    adj[3] |= 1 << (n + 1)
    assert (P.net_tent_witnesses(adj, mask_of(n + 2), True)
            == [("net", (0, 1, 3, n - 1, n, n + 1))])
    assert 0 < len(calls) <= n * n


@pytest.mark.parametrize("seed", range(4))
def test_net_tent_scan_searches_no_triples_on_a_planted_interval_body(
        monkeypatch, seed):
    """The bad component of a planted-interval instance (the planted
    vertex on its unit-interval body) holds no net or tent, and no
    triangle of it has nonempty sets for both outer vertices a net's or
    a tent's search starts from, so neither mode searches a triple."""
    g, _ = planted_interval_graph(random.Random(seed))
    ids, index, adj = g.view()
    comp = P.reach(adj, 1 << index[0], (1 << len(ids)) - 1)
    calls = count_triple_searches(monkeypatch)
    assert P.net_tent_witnesses(adj, comp, True) == []
    assert P.net_tent_witnesses(adj, comp, False) == []
    assert comp.bit_count() > 20 and calls == []


def small_cycle_cases():
    """Graphs for the hole DFS against its unpruned form: seeded random
    graphs, planted-interval instances of three body sizes, planted-tree
    instances, graphs with a planted 4..9 cycle, and all of them again
    at positions shifted past one machine word."""
    rng = random.Random(2323)
    cases = []
    for _ in range(300):
        n = rng.randint(4, 13)
        adj = random_adj(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
        mask = mask_of(n) & (rng.getrandbits(n) if rng.random() < 0.3 else -1)
        cases.append((adj, mask))
    for seed in range(2):
        for body in (28, 60, 120):
            g, _ = planted_interval_graph(random.Random(seed), body)
            cases.append(whole_view(g))
        cases.append(whole_view(planted_tree_graph(random.Random(seed))[0]))
    for length in range(4, 10):
        adj = random_adj(rng, 10, 0.3)
        plant_cycle(adj, rng.randrange(10), length)
        cases.append((adj, mask_of(len(adj))))
    return cases + [(shift_adj(adj, 61), mask << 61) for adj, mask in cases]


def test_small_cycles_keeps_the_unpruned_output():
    """Bounding the hole DFS by the vertices that can still close a hole
    changes neither the list nor its order, nor the first hole without
    ``find_all``, with every vertex as an anchor and with random ones."""
    rng = random.Random(2424)
    found = 0
    for adj, mask in small_cycle_cases():
        for anchors in (mask, rng.getrandbits(len(adj)) & mask):
            for find_all in (True, False):
                got = P.small_cycles(adj, mask, anchors, find_all)
                assert got == small_cycles_unpruned(adj, mask, anchors,
                                                    find_all)
                found += len(got)
    assert found


def test_umbrella_ok_basic():
    path = adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert P.umbrella_ok(path, [0, 1, 2, 3])
    assert not P.umbrella_ok(path, [0, 2, 1, 3])
    k4 = adj_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    for perm in itertools.permutations(range(4)):
        assert P.umbrella_ok(k4, list(perm))
    claw = adj_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for perm in itertools.permutations(range(4)):
        assert not P.umbrella_ok(claw, list(perm))


def test_pig_order_on_known_graphs():
    # paths and complete graphs are proper interval
    for n in range(1, 7):
        path = adj_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        order = pig_order_bruteforce(path, mask_of(n))
        assert order is not None and P.umbrella_ok(path, list(order))
    # claw, C4, net are not
    for adj, n in [
        (adj_from_edges(4, [(0, 1), (0, 2), (0, 3)]), 4),
        (adj_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 4),
        (adj_from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]), 6),
    ]:
        assert pig_order_bruteforce(adj, mask_of(n)) is None


def test_comp_masks_and_count_edges():
    adj = adj_from_edges(6, [(0, 1), (1, 2), (4, 5)])
    comps = P.comp_masks(adj, mask_of(6))
    assert comps == [0b000111, 0b001000, 0b110000]
    assert P.count_edges(adj, mask_of(6)) == 3
    assert P.count_edges(adj, 0b000011) == 1


def test_chordal_fail_none_on_trees_and_cliques():
    for n in range(1, 8):
        clique = adj_from_edges(n, list(itertools.combinations(range(n), 2)))
        assert P.chordal_fail(clique, mask_of(n)) is None
    star = adj_from_edges(6, [(0, i) for i in range(1, 6)])
    assert P.chordal_fail(star, mask_of(6)) is None


def test_chordal_fail_on_large_chordal_graphs_and_planted_holes():
    """Chordal graphs on 20-60 vertices (by construction) pass; with one
    chordless cycle of 7-12 vertices planted, through a vertex or as a
    component of its own, they fail with a triple that seeds a hole."""
    rng = random.Random(808)
    assert P.chordal_fail(random_interval_adj(rng, 30), 0) is None
    for trial in range(60):
        n = rng.randint(20, 60)
        build = random_interval_adj if trial % 2 else random_clique_tree_adj
        adj = build(rng, n)
        assert nx.is_chordal(nx_from_adj(adj))
        assert P.chordal_fail(adj, mask_of(n)) is None
        if trial % 3 == 0:  # the hole as a separate component
            adj.append(0)
        cycle = plant_cycle(adj, rng.randrange(len(adj)) if trial % 3 else
                            len(adj) - 1, rng.randint(7, 12))
        full = mask_of(len(adj))
        fail = P.chordal_fail(adj, full)
        assert fail is not None
        v, x, y = fail
        assert (adj[v] >> x) & 1 and (adj[v] >> y) & 1
        assert not (adj[x] >> y) & 1 and x != y
        # x and y come later than v in the reverse LBFS order
        pos = {u: i for i, u in enumerate(P.lbfs(adj, full))}
        assert pos[x] < pos[v] and pos[y] < pos[v]
        hole = find_hole(adj, full, seed=fail)
        assert set(hole) == set(cycle)  # the only hole there is
        assert nx.is_isomorphic(nx_from_adj(adj).subgraph(hole),
                                nx.cycle_graph(len(cycle)))


def test_umbrella_equivalence_exhaustive():
    """component_ok agrees with exhaustive umbrella search on all graphs n<=5
    (already covered) plus every connected graph on 6 vertices, sampled."""
    rng = random.Random(3)
    seen = 0
    while seen < 400:
        adj = random_adj(rng, 6, rng.uniform(0.25, 0.9))
        comps = P.comp_masks(adj, mask_of(6))
        if len(comps) != 1:
            continue
        seen += 1
        check_component_ok(adj, mask_of(6))


def random_unit_interval_adj(rng, n: int) -> list[int]:
    """A unit interval graph on n intervals, at randomly permuted
    positions so that no order of the positions is given away."""
    centres = sorted(rng.uniform(0, n / 3) for _ in range(n))
    at = rng.sample(range(n), n)
    return adj_from_edges(n, [(at[i], at[j])
                              for i, j in itertools.combinations(range(n), 2)
                              if centres[j] - centres[i] <= 1.0])


def test_prefix_mask_kernels_match_their_oracles():
    """On random unit-interval components and random graphs, both at
    positions from 0 and above bit 60: ``umbrella_ok`` gives the edge
    walk's verdict on the recognizer's orders, on those orders with two
    neighbours swapped and on random orders; the sweeps taken with a
    previous order are the list oracle's; ``latest`` is the latest
    vertex by position; and the chordality witness only moves with the
    positions."""
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randint(1, 24)
        adj = (random_unit_interval_adj(rng, n) if trial % 2
               else random_adj(rng, n, rng.uniform(0.1, 0.9)))
        fail = P.chordal_fail(adj, mask_of(n))
        for off in (0, 61 + rng.randrange(70)):
            sadj = shift_adj(adj, off)
            moved = None if fail is None else tuple(p + off for p in fail)
            assert P.chordal_fail(sadj, mask_of(n) << off) == moved
            for comp in P.comp_masks(sadj, mask_of(n) << off):
                verts = list(P.bits(comp))
                for prev in (P.lbfs(sadj, comp), rng.sample(verts, len(verts))):
                    pos = {v: i for i, v in enumerate(prev)}
                    assert (P.lbfs(sadj, comp, prev)
                            == lbfs_by_lists(sadj, verts, pos))
                    pre = P.prefix_masks(prev)
                    sub = rng.getrandbits(len(verts) + off) & comp or comp
                    assert (P.latest(prev, pre, sub)
                            == max(P.bits(sub), key=pos.__getitem__))
                orders = [rng.sample(verts, len(verts)) for _ in range(2)]
                order = pig_order(sadj, comp)
                if order is not None:
                    i = rng.randrange(len(order))
                    swapped = list(order)
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    orders += [list(order), swapped]
                for o in orders:
                    want = umbrella_ok_by_positions(sadj, o)
                    assert P.umbrella_ok(sadj, o) == want, (adj, off, o)
                    verdicts[want] += 1
    assert min(verdicts.values()) >= 300, verdicts


def test_lbfs_raises_when_the_previous_sweep_misses_a_vertex():
    """A previous sweep without every position of the mask has no latest
    vertex to give; the sweep says so instead of picking a pivot."""
    path = adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for off in (0, 64):
        adj, mask = shift_adj(path, off), mask_of(4) << off
        prev = [off, 1 + off, 2 + off, 3 + off]
        assert P.lbfs(adj, mask, prev) == prev[::-1]
        for prev in ([off, 1 + off, 2 + off], [], [off, 1 + off, 2 + off, 4]):
            with pytest.raises(ValueError):
                P.lbfs(adj, mask, prev)
