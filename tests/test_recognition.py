from __future__ import annotations

import random

import networkx as nx
import pytest

from pitvd import backend as bk
from pitvd import recognition as R
from pitvd.audit import audit_violations
from pitvd.driver import kernelize
from pitvd.exact import decide
from pitvd.multigraph import MultiGraph

from conftest import (
    adj_from_edges,
    all_graphs,
    component_ok,
    find_hole_by_parents,
    lbfs_by_lists,
    mask_of,
    pig_order_bruteforce,
    pig_order_three_sweeps,
    pitg_ok,
    plant_cycle,
    planted_interval_graph,
    planted_tree_graph,
    random_adj,
    random_interval_adj,
    random_multigraph,
    shift_adj,
    unit_interval_graph,
    validate_obstruction,
    witness_in_searched_order,
)
from mutants import killer_instances


def mg(edges, vertices=()):
    return MultiGraph.from_edges(edges, vertices=vertices)


# -- LBFS sweeps vs exhaustive ordering search ------------------------------

def check_pig_order(adj, full):
    for comp in bk.comp_masks(adj, full):
        got = R.pig_order(adj, comp)
        want = pig_order_bruteforce(adj, comp)
        assert (got is None) == (want is None), (adj, comp)
        if got is not None:
            assert bk.umbrella_ok(adj, list(got))


def test_pig_order_exhaustive_small():
    for n in range(1, 6):
        for adj in all_graphs(n):
            check_pig_order(adj, mask_of(n))


def test_pig_order_random_medium():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(6, 9)
        adj = random_adj(rng, n, rng.uniform(0.15, 0.85))
        check_pig_order(adj, mask_of(n))


def test_pig_order_known_graphs():
    # long path
    n = 30
    adj = [0] * n
    for i in range(n - 1):
        adj[i] |= 1 << (i + 1)
        adj[i + 1] |= 1 << i
    assert R.pig_order(adj, mask_of(n)) is not None
    # power of a path (still proper interval)
    adj2 = [0] * n
    for i in range(n):
        for j in range(i + 1, min(i + 4, n)):
            adj2[i] |= 1 << j
            adj2[j] |= 1 << i
    assert R.pig_order(adj2, mask_of(n)) is not None


# -- the one-sweep exit against the three sweeps ------------------------------

def _relabelled(rng, adj: list[int]) -> list[int]:
    """``adj`` with its positions permuted at random."""
    n = len(adj)
    perm = rng.sample(range(n), n)
    return adj_from_edges(n, [(perm[u], perm[v]) for u in range(n)
                              for v in bk.bits(adj[u]) if u < v])


def _sweep_corpus():
    """Every graph of the networkx atlas (1-7 vertices), as given and
    relabelled at random; 400 seeded random graphs; interval graphs and
    ``planted-interval``-shaped instances with bodies of 22-60 vertices,
    relabelled at random."""
    rng = random.Random(2525)
    for h in nx.graph_atlas_g()[1:]:
        adj = adj_from_edges(h.number_of_nodes(), h.edges)
        yield adj
        yield _relabelled(rng, adj)
    for _ in range(400):
        yield random_adj(rng, rng.randint(1, 30), rng.uniform(0.05, 0.9))
    for _ in range(40):
        yield _relabelled(rng, random_interval_adj(rng, rng.randint(1, 60)))
        g, _ = planted_interval_graph(rng, rng.randint(22, 60))
        yield _relabelled(rng, g.compact()[2])


def test_pig_order_matches_the_three_sweeps():
    """``pig_order`` returns the order the three sweeps return, or None
    with them, on every component of the corpus, also at high positions
    (``shift_adj``): the one-sweep exit moves no order.  The corpus has
    components answered by their first sweep, proper interval components
    whose first sweep is not an umbrella ordering, and rejected ones."""
    seen = {"one sweep": 0, "three sweeps": 0, "rejected": 0}
    for adj in _sweep_corpus():
        for a in (adj, shift_adj(adj, 61)):
            for comp in bk.comp_masks(a, (1 << len(a)) - 1):
                got = R.pig_order(a, comp)
                assert got == pig_order_three_sweeps(a, comp), (a, comp)
                if got is None:
                    seen["rejected"] += 1
                elif bk.umbrella_ok(a, bk.lbfs(a, comp)):
                    seen["one sweep"] += 1
                else:
                    seen["three sweeps"] += 1
    assert all(seen.values()), seen


def test_one_sweep_per_recognition_on_planted_interval_graphs(monkeypatch):
    """On ``planted-interval``-shaped instances (seeds 0-3), every
    ``pig_order`` call of ``kernelize`` and then of ``audit_violations``
    makes exactly one LBFS sweep: each first sweep is already an umbrella
    ordering.  Each kernel is audited as it comes and through a copy, so
    the audit's own base-set search runs too."""
    sweeps = [0]
    per_call: list[int] = []
    orig_lbfs, orig_pig_order = bk.lbfs, R.pig_order

    def lbfs_spy(*args):
        sweeps[0] += 1
        return orig_lbfs(*args)

    def pig_order_spy(adjm, comp):
        before = sweeps[0]
        order = orig_pig_order(adjm, comp)
        per_call.append(sweeps[0] - before)
        return order

    monkeypatch.setattr(bk, "lbfs", lbfs_spy)
    monkeypatch.setattr(R, "pig_order", pig_order_spy)
    for s in range(4):
        g, k = planted_interval_graph(random.Random(s))
        ker = kernelize(g, k)
        assert not ker.decided_no
        assert audit_violations(ker.graph, ker.k) == []
        assert audit_violations(ker.graph.copy(), ker.k) == []
    assert per_call and set(per_call) == {1}, per_call


def test_lbfs_masks_match_the_list_oracle():
    """The bitmask sweeps visit positions in the order the list-refining
    sweeps do: the first sweep and both tie-breaking sweeps after it, on
    whole graphs, on subsets of their positions and on disconnected
    masks; an empty mask gives an empty sweep."""
    rng = random.Random(606)
    disconnected = 0
    for trial in range(300):
        n = rng.randint(1, 40)
        adj = random_adj(rng, n, rng.uniform(0.05, 0.9))
        if trial % 3 == 0:  # two graphs side by side
            m = rng.randint(1, 20)
            adj = adj + [a << n for a in random_adj(rng, m, rng.uniform(0.1, 0.9))]
            n += m
        assert bk.lbfs(adj, 0) == [] and bk.lbfs(adj, 0, []) == []
        for mask in (mask_of(n), rng.getrandbits(n) or 1):
            disconnected += len(bk.comp_masks(adj, mask)) > 1
            verts = list(bk.bits(mask))
            order = bk.lbfs(adj, mask)
            assert order == lbfs_by_lists(adj, verts)
            shuffled = rng.sample(verts, len(verts))
            for prev in (order, shuffled):
                prev_pos = {v: i for i, v in enumerate(prev)}
                order2 = bk.lbfs(adj, mask, prev)
                assert order2 == lbfs_by_lists(adj, verts, prev_pos)
                assert sorted(order2) == verts
    assert disconnected >= 100


# -- the claw scan ahead of the sweeps ---------------------------------------

def _sweep_spy(monkeypatch) -> list[bool]:
    """Replace ``pig_order`` by a spy; the list gets one entry per call,
    True when the call returned an order."""
    calls: list[bool] = []
    orig = R.pig_order

    def spy(adjm, comp):
        order = orig(adjm, comp)
        calls.append(order is not None)
        return order

    monkeypatch.setattr(R, "pig_order", spy)
    return calls


def _check_scan(adj, calls, seen):
    """``_tree_or_pig`` and ``bad_components`` agree with ``component_ok``
    on every component of ``adj``, and a component rejected without a
    sweep holds an induced claw.  ``seen`` counts the components rejected
    by the scan, rejected by the sweeps, and those among the latter that
    hold a claw the greedy scan missed."""
    full = mask_of(len(adj))
    comps = bk.comp_masks(adj, full)
    for comp in comps:
        before = len(calls)
        ok = R._tree_or_pig(adj, comp)
        if ok != component_ok(adj, comp):
            raise AssertionError(f"verdict {ok} on {adj}, component {comp}")
        if ok:
            continue
        claw = bk.find_claw(adj, comp)
        if len(calls) == before:
            if claw is None:
                raise AssertionError(f"rejected without a claw: {adj}")
            seen["scan"] += 1
        else:
            seen["sweeps"] += 1
            seen["missed"] += claw is not None
    want = [c for c in comps if not component_ok(adj, c)]
    if R.bad_components(adj, 0, full, len(comps) + 1) != want:
        raise AssertionError(f"bad components differ on {adj}")


def test_claw_scan_agrees_with_the_oracle_on_every_small_graph(monkeypatch):
    """Every graph on at most 7 vertices (the networkx atlas, in its own
    labelling and relabelled at random, since the greedy scan depends on
    the labels): the scan rejects only components with a claw, leaves
    the rest to the sweeps, and the verdict is the oracle's."""
    calls = _sweep_spy(monkeypatch)
    rng = random.Random(1515)
    seen = {"scan": 0, "sweeps": 0, "missed": 0}
    for h in nx.graph_atlas_g()[1:]:
        n = h.number_of_nodes()
        perm = rng.sample(range(n), n)
        for label in (range(n), perm):
            adj = adj_from_edges(n, [(label[u], label[v]) for u, v in h.edges])
            _check_scan(adj, calls, seen)
    assert seen["scan"] and seen["sweeps"] and seen["missed"], seen
    assert any(calls) and not all(calls)


def _plant(adj: list[int], at: int, size: int, edges) -> None:
    """Glue a graph on local vertices 0..size-1 to ``adj``: local 0 is
    ``at`` and the others are new vertices."""
    ids = [at] + list(range(len(adj), len(adj) + size - 1))
    adj.extend([0] * (size - 1))
    for u, v in edges:
        adj[ids[u]] |= 1 << ids[v]
        adj[ids[v]] |= 1 << ids[u]


_PLANTS = {
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
    "net": (6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]),
    "triangle": (3, [(0, 1), (1, 2), (2, 0)]),
}


def _planted_adj(rng) -> list[int]:
    """A seeded graph of 8-40 vertices: a sparse random graph, a random
    tree, an interval graph or a unit-interval body, with one or two
    claws, holes, nets or triangles glued on at random vertices."""
    n = rng.randint(6, 28)
    base = rng.choice(("random", "tree", "interval", "unit"))
    if base == "random":
        adj = random_adj(rng, n, rng.uniform(0.05, 0.3))
    elif base == "tree":
        adj = adj_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
    elif base == "interval":
        adj = random_interval_adj(rng, n)
    else:
        adj = unit_interval_graph(rng, n, n / 4).compact()[2]
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(adj))
        kind = rng.choice(("claw", "hole", "net", "triangle"))
        if kind == "hole":
            plant_cycle(adj, at, rng.randint(4, 7))
        else:
            _plant(adj, at, *_PLANTS[kind])
    return adj


def test_claw_scan_agrees_with_the_oracle_on_planted_graphs(monkeypatch):
    """Seeded graphs of 8-40 vertices with planted claws, holes, nets and
    triangles: the same contract as on the small graphs."""
    calls = _sweep_spy(monkeypatch)
    rng = random.Random(1516)
    seen = {"scan": 0, "sweeps": 0, "missed": 0}
    for _ in range(400):
        adj = _planted_adj(rng)
        assert 8 <= len(adj) <= 40
        _check_scan(adj, calls, seen)
    assert seen["scan"] and seen["sweeps"], seen
    assert any(calls)


def test_sweeps_run_only_on_components_they_accept(monkeypatch):
    """On a ``planted-tree``-shaped instance, every ``pig_order`` call of
    ``kernelize`` and then of ``audit_violations`` returns an order: each
    component it would reject holds a claw the scan finds first.  The
    star-plus-triangle component alone never reaches ``pig_order``.  The
    kernel is audited as it comes and through a copy, so the audit's own
    base-set search runs too.

    The instance is ``conftest.planted_tree_graph`` (trees grown from
    6-vertex spines, each closed into a 7-hole by a planted vertex that
    also joins a small unit-interval component) beside a star with five
    leaves, two of them joined into a triangle, and one more deletion."""
    g, k = planted_tree_graph(random.Random(1517))
    star = [g.add_vertex() for _ in range(6)]
    for leaf in star[1:]:
        g.add_edge(star[0], leaf)
    g.add_edge(star[1], star[2])
    calls = _sweep_spy(monkeypatch)
    ker = kernelize(g, k + 1)
    assert not ker.decided_no
    assert audit_violations(ker.graph, ker.k) == []
    assert audit_violations(ker.graph.copy(), ker.k) == []
    assert calls and all(calls)
    calls.clear()
    assert not R.component_clean(g, star)
    ok, obs = R.is_pitg(g, star)
    assert not ok and obs.kind == "claw+triangle"
    assert calls == []


# -- is_pitg and witnesses ---------------------------------------------------

def test_subset_recognition_matches_induced_copy():
    """``is_pitg(g, vs)`` and ``g.double_edges(vs)`` answer for the
    subgraph induced on ``vs`` exactly as the same calls on a copy."""
    rng = random.Random(707)
    # a tent (triangle 0-1-2, vertices 3, 4, 5 on its sides), which random
    # graphs this small rarely show ahead of a net, with pendants 6 and 7
    tent = mg([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 1), (4, 2),
               (5, 2), (5, 0), (6, 3), (7, 6)])
    kinds = set()
    for trial in range(400):
        g = random_multigraph(rng, rng.randint(1, 12),
                              rng.choice((0.15, 0.3, 0.5, 0.7)), 0.1)
        if trial % 20 == 0:
            g = tent
        vs = [v for v in g.vertices if rng.random() < 0.75]
        sub = g.induced(vs)
        want = R.is_pitg(sub)
        for arg in (vs, set(vs), frozenset(vs)):
            assert R.is_pitg(g, arg) == want
            assert g.double_edges(arg) == sub.double_edges()
        kinds.add(want[1] and want[1].kind)
    assert kinds == {None, "double", "net", "tent", "hole", "claw+triangle"}


def test_subset_recognition_rejects_missing_vertices():
    g = mg([(0, 1), (1, 2)])
    for query in (lambda vs: R.is_pitg(g, vs), g.double_edges):
        with pytest.raises(KeyError):
            query([0, 7])

def test_accepts_clean_graphs():
    assert R.is_pitg(mg([(0, 1), (1, 2), (2, 3)]))[0]
    assert R.is_pitg(mg([(0, 1), (1, 2), (0, 2)]))[0]  # triangle
    assert R.is_pitg(mg([], vertices=[0, 1, 2]))[0]
    # PIG component plus a tree component
    ok, obs = R.is_pitg(mg([(0, 1), (1, 2), (0, 2), (1, 3), (2, 3),
                            (5, 6), (6, 7), (6, 8)]))
    assert ok and obs is None


def test_double_edge_preferred():
    g = mg([(0, 1, 2), (2, 3), (3, 4), (4, 5), (5, 2)])  # doubled edge + C4
    ok, obs = R.is_pitg(g)
    assert not ok
    assert obs.kind == "double"
    validate_obstruction(g, obs)


def test_net_witness():
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "net"
    validate_obstruction(g, obs)


def test_tent_witness():
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4), (2, 4),
            (2, 5), (0, 5)])
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "tent"
    validate_obstruction(g, obs)


def test_net_beats_hole_in_same_component():
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5),
             (3, 6), (6, 7), (7, 8), (8, 3)]  # net with a C4 hung at a pendant
    g = mg(edges)
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "net"
    validate_obstruction(g, obs)


def test_first_bad_component_wins():
    # component {0..3} is a C4; component {10..15} is a net
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (10, 11), (11, 12), (12, 10), (10, 13), (11, 14), (12, 15)]
    g = mg(edges)
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "hole"
    assert set(obs.vertices) == {0, 1, 2, 3}
    validate_obstruction(g, obs)


def test_long_hole_witness():
    g = mg([(i, (i + 1) % 7) for i in range(7)])
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "hole"
    assert len(obs.vertices) == 7
    validate_obstruction(g, obs)


def test_claw_triangle_pair_witness():
    # triangle 0-1-2 with two pendants at 0: chordal, no net/tent/hole
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "claw+triangle"
    validate_obstruction(g, obs)


def test_is_pitg_matches_characterization_random():
    rng = random.Random(5)
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7),
                              double_frac=0.15)
        ok, obs = R.is_pitg(g)
        ids, _, adjm = g.compact()
        full = (1 << len(ids)) - 1
        want = not g.double_edges() and pitg_ok(adjm, full)
        assert ok == want
        if ok:
            assert obs is None
        else:
            validate_obstruction(g, obs)


def _witness_cases():
    """(adjm, component) pairs of seeded random graphs, some with a
    planted chordless cycle of 4-9 vertices, then of the killer
    instances; every obstruction kind occurs among them."""
    rng = random.Random(909)
    tent = mg([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 1), (4, 2),
               (5, 2), (5, 0), (6, 3), (7, 6)])
    graphs = [g.compact()[2] for g in
              [tent] + [g for _, g, _ in killer_instances()]]
    for trial in range(300):
        n = rng.randint(3, 12)
        adj = random_adj(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
        if trial % 3 == 0:
            plant_cycle(adj, rng.randrange(n), rng.randint(4, 9))
        graphs.append(adj)
    for adj in graphs:
        for comp in bk.comp_masks(adj, mask_of(len(adj))):
            yield adj, comp


def test_component_witness_matches_the_searched_order():
    """Gating the hole searches on the chordality check changes no
    witness: the search order without the gate is the oracle."""
    kinds = set()
    for adj, comp in _witness_cases():
        got = R.witness(adj, comp)
        assert got == witness_in_searched_order(adj, comp)
        if got is None:
            kinds.add(None)
        else:
            long = got.kind == "hole" and len(got.vertices) > 6
            kinds.add(got.kind + (" long" if long else ""))
    assert kinds == {None, "net", "tent", "hole", "hole long",
                     "claw+triangle"}


def test_chordal_components_skip_the_hole_searches(monkeypatch):
    """Neither hole search runs on a component the chordality check
    passes: a chordal graph has no hole of any length."""
    calls = {"small_cycles": [], "find_hole": []}

    def spy(name, fn):
        def wrapped(adjm, comp, *rest, **kw):
            calls[name].append(bk.chordal_fail(adjm, comp) is None)
            return fn(adjm, comp, *rest, **kw)
        return wrapped

    monkeypatch.setattr(bk, "small_cycles", spy("small_cycles", bk.small_cycles))
    monkeypatch.setattr(R, "find_hole", spy("find_hole", R.find_hole))
    witnesses = [R.witness(adj, comp) for adj, comp in _witness_cases()]
    assert any(w and w.kind == "claw+triangle" for w in witnesses)
    assert calls["small_cycles"] and calls["find_hole"]
    assert not any(calls["small_cycles"] + calls["find_hole"])


def test_find_hole_on_c7_with_chords_elsewhere():
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(7, 0), (7, 1)]  # extra triangle off the hole
    g = mg(edges)
    ids, _, adjm = g.compact()
    full = (1 << len(ids)) - 1
    hole = R.find_hole(adjm, full, bk.chordal_fail(adjm, full))
    assert hole is not None
    k = len(hole)
    assert k >= 4
    for i in range(k):
        assert (adjm[hole[i]] >> hole[(i + 1) % k]) & 1


def test_find_hole_none_on_chordal():
    """A chordal graph gives ``find_hole`` no seed to start from."""
    g = mg([(0, 1), (1, 2), (0, 2), (2, 3)])
    ids, _, adjm = g.compact()
    assert bk.chordal_fail(adjm, (1 << len(ids)) - 1) is None


def test_chordality_failure_seeds_a_hole():
    """The triple of a failed chordality check closes a hole by itself,
    on every non-chordal component of every labelled graph on 4-6
    vertices and of every atlas graph on at most 7 under relabellings."""

    def graphs():
        for n in range(4, 7):
            yield from all_graphs(n)
        rng = random.Random(470)
        for h in nx.graph_atlas_g()[1:]:
            adj = adj_from_edges(h.number_of_nodes(), h.edges)
            for _ in range(20):
                yield _relabelled(rng, adj)

    seeded = 0
    for adj in graphs():
        for comp in bk.comp_masks(adj, mask_of(len(adj))):
            fail = bk.chordal_fail(adj, comp)
            if fail is None:
                continue
            hole = R.find_hole(adj, comp, fail)
            assert hole is not None and hole[0] == fail[0], (adj, fail)
            assert hole == find_hole_by_parents(adj, comp, fail), (adj, fail)
            k = len(hole)
            cyc = sum(1 << u for u in hole)
            assert k >= 4 and cyc.bit_count() == k
            for i, u in enumerate(hole):
                assert adj[u] & cyc == (1 << hole[i - 1]) | (
                    1 << hole[(i + 1) % k]), (adj, hole)
            seeded += 1
    assert seeded > 25000, seeded


def test_component_clean():
    g = mg([(0, 1), (1, 2), (2, 0), (0, 3), (0, 4),  # claw+triangle comp
            (10, 11), (11, 12),                       # path comp
            (20, 21, 2)])                             # doubled comp
    assert not R.component_clean(g, [0, 1, 2, 3, 4])
    assert R.component_clean(g, [10, 11, 12])
    assert not R.component_clean(g, [20, 21])


def test_obstruction_sets_against_brute():
    """Every net and tent of the graph, and exactly the short holes that
    meet the anchors: all of them when the anchors are every vertex or a
    deletion set, and a random subset's share otherwise."""
    from conftest import brute_induced_cycles, brute_net_tent_sets

    rng = random.Random(17)
    for _ in range(60):
        g = random_multigraph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.6),
                              double_frac=0.1)
        ids, index, adjm = g.compact()
        full = (1 << len(ids)) - 1
        to_pos = lambda s: frozenset(index[v] for v in s)
        nets_tents = brute_net_tent_sets(adjm, full)
        holes = brute_induced_cycles(adjm, full)
        solution = decide(g, g.n)
        for anchors in (g.vertices, solution,
                        [v for v in g.vertices if rng.random() < 0.4]):
            got = R.obstruction_sets(g, anchors)
            got_nt = {(k, to_pos(s)) for k, s in got if k in ("net", "tent")}
            got_holes = [to_pos(s) for k, s in got if k == "hole"]
            assert got_nt == nets_tents
            assert len(set(got_holes)) == len(got_holes)
            assert set(got_holes) == {h for h in holes
                                      if h & to_pos(anchors)}
        assert set(R.obstruction_sets(g, solution)) == \
            set(R.obstruction_sets(g, g.vertices))


def test_pig_order_positions_and_multiplicity_blind():
    # doubled edge must not affect the simple-graph ordering machinery
    g = mg([(0, 1, 2), (1, 2)])
    ids, _, adjm = g.compact()
    assert R.pig_order(adjm, 0b111) is not None  # path as simple graph
    ok, obs = R.is_pitg(g)
    assert not ok and obs.kind == "double"
