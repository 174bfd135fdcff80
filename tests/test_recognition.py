from __future__ import annotations

import random

import pytest

from pitvd import backend as bk
from pitvd import recognition as R
from pitvd.exact import decide
from pitvd.multigraph import MultiGraph
from pitvd.mutation import killer_instances

from conftest import (
    all_graphs,
    lbfs_by_lists,
    mask_of,
    pig_order_bruteforce,
    pitg_ok,
    plant_cycle,
    random_adj,
    random_multigraph,
    validate_obstruction,
    witness_in_searched_order,
)


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
        assert bk.lbfs(adj, 0) == [] and bk.lbfs(adj, 0, {}) == []
        for mask in (mask_of(n), rng.getrandbits(n) or 1):
            disconnected += len(bk.comp_masks(adj, mask)) > 1
            verts = list(bk.bits(mask))
            order = bk.lbfs(adj, mask)
            assert order == lbfs_by_lists(adj, verts)
            shuffled = rng.sample(verts, len(verts))
            for prev in (order, shuffled):
                prev_pos = {v: i for i, v in enumerate(prev)}
                order2 = bk.lbfs(adj, mask, prev_pos)
                assert order2 == lbfs_by_lists(adj, verts, prev_pos)
                assert sorted(order2) == verts
    assert disconnected >= 100


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
    hole = R.find_hole(adjm, (1 << len(ids)) - 1)
    assert hole is not None
    k = len(hole)
    assert k >= 4
    for i in range(k):
        assert (adjm[hole[i]] >> hole[(i + 1) % k]) & 1


def test_find_hole_none_on_chordal():
    g = mg([(0, 1), (1, 2), (0, 2), (2, 3)])
    ids, _, adjm = g.compact()
    assert R.find_hole(adjm, (1 << len(ids)) - 1) is None


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
