"""Tests for the base set and the tree-side strata."""

import os
import random
import subprocess
import sys
import textwrap

import networkx as nx
import pytest

import pitvd
from pitvd import backend, recognition
from pitvd.cli import random_instance
from pitvd.cliques import clique_path
from pitvd.combinatorics import flower_in_forest
from pitvd.exact import DEFAULT_NODE_LIMIT, decide
from pitvd.modulator import (classify_tree_side, compute_base_set,
                             small_obstruction_family)
from pitvd.multigraph import MultiGraph
from pitvd.recognition import is_pitg
from pitvd.rules import RULES

from conftest import (base_set_from_whole_family, compute_modulator,
                      minimum_deletion, nx_multigraph, planted_interval_graph,
                      planted_tree_graph, random_multigraph, tree_and_cyclic)

TENT = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]


def path_with_hangers(hanger_at, length=9):
    """Hub 0 joined to both ends of a path 1..length; hangers pend below."""
    edges = [(0, 1), (0, length)]
    edges += [(i, i + 1) for i in range(1, length)]
    nxt = length + 1
    hooks = {}
    for h in hanger_at:
        edges.append((h, nxt))
        hooks[h] = nxt
        nxt += 1
    return MultiGraph.from_edges(edges), hooks


# ---------------------------------------------------------------------------
# fixed hook configurations
# ---------------------------------------------------------------------------

def test_no_hangers_no_hooks():
    g, _ = path_with_hangers([])
    m = classify_tree_side(g, [0])
    assert m.good_hooks == frozenset() and m.bad_hooks == frozenset()
    assert m.hangers == {}
    assert m.f3 == frozenset(range(2, 9))


def test_single_hanger_is_good():
    g, _ = path_with_hangers([5])
    m = classify_tree_side(g, [0])
    assert m.good_hooks == frozenset({5})
    assert m.bad_hooks == frozenset()


def test_middle_of_three_hangers_is_bad():
    g, _ = path_with_hangers([3, 5, 7])
    m = classify_tree_side(g, [0])
    assert m.good_hooks == frozenset({3, 7})
    assert m.bad_hooks == frozenset({5})
    (c,) = m.hangers[5]
    assert nx.is_tree(nx_multigraph(g, c))


def test_two_hangers_both_good():
    g, _ = path_with_hangers([4, 6])
    m = classify_tree_side(g, [0])
    assert m.good_hooks == frozenset({4, 6})
    assert m.bad_hooks == frozenset()


def test_branch_point_splits_chains():
    # three arms from a center c, each ending at an S-neighbor, with three
    # hangers on one arm: the center is a branch point, so only that arm's
    # middle hook is bad
    edges = [(0, 1), (0, 2), (0, 3)]
    c = 10
    arm1 = [1, 11, 12, 13, 14, 15, c]
    arm2 = [2, 21, c]
    arm3 = [3, 31, c]
    for arm in (arm1, arm2, arm3):
        edges += list(zip(arm, arm[1:]))
    edges += [(12, 40), (13, 41), (14, 42)]
    g = MultiGraph.from_edges(edges)
    m = classify_tree_side(g, [0])
    assert m.f3_critical == frozenset({c})
    assert m.good_hooks == frozenset({12, 14})
    assert m.bad_hooks == frozenset({13})


def test_hanger_vertices_are_plain_tree_side():
    g, hooks = path_with_hangers([3, 5, 7])
    m = classify_tree_side(g, [0])
    for w, pend in hooks.items():
        assert pend in m.v2 - m.f1 and pend not in m.f3
        assert frozenset({pend}) in m.hangers[w]


def test_multi_vertex_hanger():
    g, _ = path_with_hangers([5])
    # grow the pendant vertex 10 into a small subtree
    for w in (11, 12):
        g.ensure_vertex(w)
        g.add_edge(10, w)
    m = classify_tree_side(g, [0])
    assert m.hangers[5] == (frozenset({10, 11, 12}),)


# ---------------------------------------------------------------------------
# strata against brute force
# ---------------------------------------------------------------------------

def random_tree_with_hub(rng, n):
    t = nx.random_labeled_tree(n, seed=rng.randrange(1 << 30))
    g = MultiGraph.from_edges([(u + 1, v + 1) for u, v in t.edges])
    hub_nbrs = rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 3)))
    for u in hub_nbrs:
        g.ensure_vertex(0)
        g.add_edge(0, u)
    return g, set(hub_nbrs)


def brute_strata(g, s):
    rest = [v for v in g.vertices if v not in s]
    h = g.induced(rest)
    t = nx.Graph([(u, v) for u, v, _ in h.edges()])
    t.add_nodes_from(rest)
    f1 = {u for u in rest if any(w in s for w in g.neighbors(u))}
    f3 = set()
    for x in f1:
        for y in f1:
            if x < y and nx.has_path(t, x, y):
                f3.update(nx.shortest_path(t, x, y)[1:-1])
    f3 -= f1
    sub = t.subgraph(f1 | f3)
    f3c = {u for u in f3 if sub.degree(u) >= 3}
    hooks = {}
    for w in f3 - f3c:
        if sub.degree(w) != 2:
            continue
        branches = []
        for u in t.neighbors(w):
            if u in f1 | f3:
                continue
            comp = nx.node_connected_component(nx.restricted_view(t, [w], []), u)
            branches.append(frozenset(comp))
        if branches:
            hooks[w] = branches
    good = set()
    nodes = f1 | f3c
    for x in nodes:
        for y in nodes:
            if x >= y or not nx.has_path(t, x, y):
                continue
            on_path = [v for v in nx.shortest_path(t, x, y) if v in hooks]
            if on_path:
                good.add(on_path[0])
                good.add(on_path[-1])
    bad = set(hooks) - good
    return f1, f3, f3c, hooks, good, bad


def random_forest_with_hubs(rng):
    """2-4 random trees under 1-3 hubs.  Pendant paths hang from random
    tree vertices, and each tree gets 0-4 hub edges, so some trees have
    no S-neighbor or only one."""
    hubs = list(range(rng.randint(1, 3)))
    g = MultiGraph.from_edges([], vertices=hubs)
    nxt = len(hubs)
    for _ in range(rng.randint(2, 4)):
        n = rng.randint(2, 10)
        t = nx.random_labeled_tree(n, seed=rng.randrange(1 << 30))
        verts = list(range(nxt, nxt + n))
        for v in verts:
            g.ensure_vertex(v)
        for u, v in t.edges:
            g.add_edge(nxt + u, nxt + v)
        nxt += n
        for _ in range(rng.randint(0, 3)):
            at = rng.choice(verts)
            for _ in range(rng.randint(1, 3)):
                g.ensure_vertex(nxt)
                g.add_edge(at, nxt)
                at, nxt = nxt, nxt + 1
        for u in rng.sample(verts, min(n, rng.choice([0, 1, 2, 2, 3, 4]))):
            g.add_edge(rng.choice(hubs), u)
    return g, set(hubs)


def check_strata(g, s):
    m = classify_tree_side(g, s)
    f1, f3, f3c, hooks, good, bad = brute_strata(g, s)
    assert m.f1 == frozenset(f1)
    assert m.f3 == frozenset(f3)
    assert m.f3_critical == frozenset(f3c)
    assert set(m.hangers) == set(hooks)
    for w in hooks:
        assert sorted(m.hangers[w]) == sorted(hooks[w])
    assert m.good_hooks == frozenset(good)
    assert m.bad_hooks == frozenset(bad)
    return m


@pytest.mark.parametrize("seed", range(40))
def test_strata_match_brute_force(seed):
    rng = random.Random(7000 + seed)
    g, _ = random_tree_with_hub(rng, rng.randint(4, 18))
    check_strata(g, {0})


def test_strata_match_brute_force_on_forests():
    """Forests under several hubs reach what one tree under one hub does
    not: bad hooks, trees with no S-neighbor or one, and several trees
    that each have two or more."""
    seen = dict.fromkeys(["bad hook", "no S-neighbor", "one S-neighbor",
                          "two multi-anchor trees"], 0)
    for seed in range(300):
        g, hubs = random_forest_with_hubs(random.Random(7100 + seed))
        m = check_strata(g, hubs)
        anchors = [len(m.f1.intersection(t)) for t in g.components(m.v2)]
        seen["bad hook"] += bool(m.bad_hooks)
        seen["no S-neighbor"] += 0 in anchors
        seen["one S-neighbor"] += 1 in anchors
        seen["two multi-anchor trees"] += sum(a >= 2 for a in anchors) >= 2
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(20))
def test_strata_partition_random_multigraphs(seed):
    rng = random.Random(8100 + seed)
    g = random_multigraph(rng, rng.randint(5, 11), 0.3, 0.1)
    m = compute_modulator(g, 3, node_limit=10**6)
    if m is None:
        size, _ = minimum_deletion(g)
        assert size > 3
        return
    everything = set(m.s) | set(m.v1) | set(m.v2)
    assert everything == set(g.vertices)
    assert m.s.isdisjoint(m.v1) and m.s.isdisjoint(m.v2) and m.v1.isdisjoint(m.v2)
    assert m.f1 <= m.v2
    assert m.f3 <= m.v2 - m.f1
    assert m.f3_critical <= m.f3
    assert m.hooks <= m.f3 - m.f3_critical
    assert len(m.f3_critical) <= len(m.f1)
    h = g.induced([v for v in g.vertices if v not in m.s])
    ok, _ = is_pitg(h)
    assert ok
    for comp in h.components():
        if comp[0] in m.v2:
            assert nx.is_tree(nx_multigraph(h, comp))
        else:
            assert not nx.is_forest(nx_multigraph(h, comp))


def test_classify_reads_the_leftover_in_place(monkeypatch):
    """The strata are computed on ``g`` itself: G - S is never copied."""
    rng = random.Random(515)
    graphs = [random_tree_with_hub(rng, rng.randint(8, 18))[0]
              for _ in range(20)]
    graphs.append(path_with_hangers([3, 5, 7])[0])
    copies = []
    for name in ("copy", "induced"):
        orig = getattr(MultiGraph, name)

        def counted(self, *args, name=name, orig=orig):
            copies.append(name)
            return orig(self, *args)

        monkeypatch.setattr(MultiGraph, name, counted)
    hooked = 0
    for g in graphs:
        hooked += bool(classify_tree_side(g, [0]).hooks)
    assert hooked and copies == []


# ---------------------------------------------------------------------------
# base set
# ---------------------------------------------------------------------------

def test_base_set_empty_for_clean_graph():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    s, fb = compute_base_set(g, 2)
    assert s == set() and not fb


def test_base_set_single_tent():
    g = MultiGraph.from_edges(TENT)
    s, fb = compute_base_set(g, 1)
    assert s == set(range(6))
    assert not fb


def test_base_set_decided_no():
    edges = []
    for i in range(2):  # two disjoint tents, budget 1
        off = 6 * i
        edges += [(u + off, v + off) for u, v in TENT]
    g = MultiGraph.from_edges(edges)
    s, fb = compute_base_set(g, 1)
    assert s is None and not fb


def test_base_set_fallback_on_tiny_node_limit():
    g = MultiGraph.from_edges(TENT)
    s, fb = compute_base_set(g, 1, node_limit=1)
    assert fb
    assert s is not None and s >= set(range(6))
    ok, _ = is_pitg(g.induced([v for v in g.vertices if v not in s]))
    assert ok


def test_small_obstruction_family_contents():
    g = MultiGraph.from_edges([(0, 1, 2), (1, 2), (2, 3), (3, 4), (4, 1)])
    fam = small_obstruction_family(g, [1])
    assert frozenset({0, 1}) in fam      # parallel pair
    assert frozenset({1, 2, 3, 4}) in fam  # 4-hole


def test_short_holes_are_searched_from_the_bootstrap_only(monkeypatch):
    """On a planted-interval instance the hole DFS starts once per vertex
    of the bootstrap solution, not once per vertex of the graph, and it
    walks only the paths that can still close a hole: at most 60 DFS
    nodes (the unpruned DFS visits 408)."""
    g, k = planted_interval_graph(random.Random(52))
    boot = decide(g, k)
    dfs = backend._cycle_dfs
    starts = []
    nodes = []

    def counted(adj, s, rest, path, *args):
        nodes.append(path)
        if len(path) == 1:
            starts.append(s)
        return dfs(adj, s, rest, path, *args)

    monkeypatch.setattr(backend, "_cycle_dfs", counted)
    fam = small_obstruction_family(g, boot)
    assert len(starts) == len(boot) == 1 and g.n > 50
    assert len(nodes) <= 60
    assert any(len(vs) == 4 for vs in fam)  # the planted vertex's holes


@pytest.mark.parametrize("shape", ["planted-interval", "planted-tree",
                                   "random"])
def test_base_set_matches_the_whole_graph_family(shape):
    """Searching the short holes only through the bootstrap solution gives
    the base set of the whole-graph family, after the exact search and
    after the greedy fallback alike."""
    rng = random.Random(f"base-set/{shape}")
    sources = set()
    for _ in range(6 if shape.startswith("planted") else 60):
        if shape == "planted-interval":
            g, k = planted_interval_graph(rng)
        elif shape == "planted-tree":
            g, k = planted_tree_graph(rng)
        else:
            g, k = random_instance(rng, 12, 4)
        for limit in (DEFAULT_NODE_LIMIT, 1):
            got = compute_base_set(g, k, limit)
            assert got == base_set_from_whole_family(g, k, limit)
            sources.add(got[1])
    assert sources == {False, True}


def test_classify_rejects_unclean_leftover():
    g = MultiGraph.from_edges(TENT)
    with pytest.raises(ValueError):
        classify_tree_side(g, [])


# ---------------------------------------------------------------------------
# G - S analysed once: clique paths and flowers
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, fn) -> list:
    """Record every call of ``fn`` made through any pitvd module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "pitvd":
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_base_set_rules_reuse_the_paths_and_flowers(monkeypatch):
    """One classification, its first read of the flowers and one scan of
    each of rules 9-14 build each clique path and each flower exactly
    once."""
    strip = [(u, v) for u in range(20, 25) for v in (u + 1, u + 2) if v < 25]
    g = MultiGraph.from_edges(
        [(0, 1), (10, 11), (11, 12), (10, 12), (0, 10)]         # triangle
        + strip + [(0, 20), (1, 24)]                             # clique path
        + [(30, 31), (31, 32), (30, 32), (1, 32)]                # triangle
        + [(40, 41), (41, 42), (42, 43), (0, 40), (0, 43), (1, 41)])
    s, cyclic = [0, 1], 3
    paths = count_calls(monkeypatch, clique_path)
    flowers = count_calls(monkeypatch, flower_in_forest)
    mod = classify_tree_side(g, s)
    assert sorted(mod.flowers) == s
    for rule_id, needs_mod, fn in RULES:
        if needs_mod and int(rule_id) >= 9:
            fn(g, 1, mod)
    assert len(paths) == cyclic
    assert len(flowers) == len(s)


def test_classify_reads_g_minus_s_from_one_bitmask_view(monkeypatch):
    """The graph is compacted once, into its kept view: the components,
    tree tests and triangle checks of G - S all read it.  Only the clique
    path of each cyclic component compacts that component again, no
    component search runs on the multigraph, and the tree side takes at
    most two leaf-stripping passes however many trees have two or more
    S-neighbors."""
    calls = []
    for name in ("components", "compact", "hanging_trees"):
        orig = getattr(MultiGraph, name)

        def counted(self, *args, name=name, orig=orig, **kwargs):
            calls.append(name)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(MultiGraph, name, counted)
    # two hubs over three trees that each touch both, plus a triangle and
    # a 4-vertex strip
    tree = [(10, 11), (11, 12), (12, 13), (13, 14), (12, 15), (15, 16)]
    hubs = [0, 1]
    g = MultiGraph.from_edges(
        tree + [(h, u) for h in hubs for u in (10 + h, 14, 16)]
        + [(40, 41), (41, 42), (42, 43), (41, 44), (0, 40), (1, 43)]
        + [(50, 51), (51, 52), (0, 50), (1, 52)]
        + [(20, 21), (21, 22), (20, 22), (0, 20)]
        + [(30, 31), (31, 32), (30, 32), (31, 33), (32, 33), (1, 33)])
    mod = classify_tree_side(g, hubs)
    assert len(mod.paths) == 2 and any(fl.order for fl in mod.flowers.values())
    assert {41, 42, 51} <= mod.f3 and mod.hangers[41] == (frozenset({44}),)
    assert calls.count("components") == 0
    assert calls.count("compact") == 1 + len(mod.paths)
    assert calls.count("hanging_trees") <= 2


@pytest.mark.parametrize("edges", [
    TENT,
    [(0, 1), (1, 2), (2, 3), (3, 0)],
    [(0, 1, 2), (1, 2)],
], ids=["tent", "c4", "doubled-edge"])
def test_classify_rejects_without_a_witness_search(monkeypatch, edges):
    searched = []
    monkeypatch.setattr(recognition, "witness",
                        lambda *args: searched.append(args))
    with pytest.raises(ValueError):
        classify_tree_side(MultiGraph.from_edges(edges + [(7, 8)]), [])
    assert searched == []


def test_paths_and_flowers_match_a_direct_computation():
    rng = random.Random(9090)
    seen_paths = seen_flowers = 0
    for _ in range(60):
        g = tree_and_cyclic(rng, rng.randint(6, 14))
        hub = g.add_vertex()
        for u in rng.sample(g.vertices[:-1], rng.randint(1, 4)):
            g.add_edge(hub, u)
        m = compute_modulator(g, 3, node_limit=10**6)
        if m is None:
            continue
        assert m.paths == tuple(clique_path(g, comp)
                                for comp in g.components(m.v1))
        assert m.flowers == {v: flower_in_forest(g, v, sorted(m.v2))
                             for v in sorted(m.s)}
        assert list(m.flowers) == sorted(m.s)
        seen_paths += len(m.paths)
        seen_flowers += sum(fl.order > 0 for fl in m.flowers.values())
    assert seen_paths and seen_flowers


def test_base_set_and_strata_share_one_view(monkeypatch):
    """The exact bootstrap, its closing validation, the obstruction scan
    and the strata of one unedited graph build its bitmask view once;
    the clique paths compact their components on their own."""
    shapes = [planted_interval_graph(random.Random(3)),
              planted_tree_graph(random.Random(3)),
              (random_forest_with_hubs(random.Random(5))[0], 3)]
    compact = MultiGraph.compact
    cyclic = 0
    for g, k in shapes:
        calls = []

        def counted(self, vs=None):
            calls.append(vs)
            return compact(self, vs)

        monkeypatch.setattr(MultiGraph, "compact", counted)
        s, _ = compute_base_set(g, k)
        mod = classify_tree_side(g, s)
        monkeypatch.undo()
        assert calls.count(None) == 1
        assert (sorted(sorted(vs) for vs in calls if vs is not None)
                == sorted(sorted(p.order) for p in mod.paths))
        cyclic += len(mod.paths)
    assert cyclic


def test_flowers_walk_only_the_trees_their_hub_touches(monkeypatch):
    """Each hub's flower is built, on the first read of the flowers, over
    the trees of G - S that hold one of its neighbours, and it equals the
    flower over the whole tree side, on random forests under hubs with
    single and doubled edges."""
    regions = count_calls(monkeypatch, flower_in_forest)
    seen = dict.fromkeys(["doubled petal", "untouched tree", "path petal"], 0)
    for seed in range(200):
        rng = random.Random(9300 + seed)
        g, hubs = random_forest_with_hubs(rng)
        tree_side = [v for v in g.vertices if v not in hubs]
        for u in rng.sample(tree_side, rng.randint(0, 3)):
            g.set_multiplicity(rng.choice(sorted(hubs)), u, 2)
        regions.clear()
        m = classify_tree_side(g, hubs)
        assert sorted(m.flowers) == sorted(hubs)
        trees = g.components(m.v2)
        for _g, hub, region in regions:
            touched = [t for t in trees
                       if any(g.has_edge(hub, u) for u in t)]
            assert sorted(region) == sorted(u for t in touched for u in t)
            seen["untouched tree"] += len(touched) < len(trees)
            whole = flower_in_forest(g, hub, sorted(m.v2))
            assert m.flowers[hub] == whole
            seen["doubled petal"] += any(len(p) == 1 for p in whole.petals)
            seen["path petal"] += any(len(p) > 1 for p in whole.petals)
    assert all(seen.values()), seen


def test_strata_without_bad_hangers_equal_a_fresh_classification():
    """Deleting the hangers of the bad hooks leaves the strata
    ``without_bad_hangers`` gives: equal to a fresh classification field
    by field, flowers included, on random forests under hubs and on
    paths with hangers at every spacing."""
    shapes = [random_forest_with_hubs(random.Random(9500 + seed))
              for seed in range(300)]
    rng = random.Random(9501)
    for _ in range(100):
        length = rng.randint(5, 14)
        spots = rng.sample(range(1, length + 1), rng.randint(3, length))
        shapes.append((path_with_hangers(spots, length)[0], {0}))
    carried = 0
    for g, hubs in shapes:
        mod = classify_tree_side(g, hubs)
        if not mod.bad_hooks:
            continue
        assert mod.bad_hangers == {u for w in mod.bad_hooks
                                   for c in mod.hangers[w] for u in c}
        for v in sorted(mod.bad_hangers):
            g.delete_vertex(v)
        got, want = mod.without_bad_hangers(), classify_tree_side(g, hubs)
        assert got == want and not got.bad_hooks
        assert got.flowers == want.flowers
        carried += 1
    assert carried >= 80, carried


def test_flowers_are_walked_on_first_read_and_kept():
    """Classifying walks no flower; the first read walks each base
    vertex's flower once and keeps them as a plain dict."""
    g, _ = path_with_hangers([3, 5, 7])
    mod = classify_tree_side(g, [0])
    assert "flowers" not in vars(mod)
    first = mod.flowers
    assert type(first) is dict and vars(mod)["flowers"] is first
    assert mod.flowers is first and list(first) == [0]


def test_flowers_read_after_an_edit_raise_under_python_O():
    """A first read of the flowers after the graph changed raises an
    explicit ``AssertionError``, which ``python -O`` keeps."""
    script = textwrap.dedent("""
        from pitvd.modulator import classify_tree_side
        from pitvd.multigraph import MultiGraph
        assert False, "asserts must be stripped"
        g = MultiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
        mod = classify_tree_side(g, [0])
        g.delete_vertex(4)
        mod.flowers
    """)
    src = os.path.dirname(os.path.dirname(pitvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert ("AssertionError: the graph changed since its strata were made"
            in done.stderr), done.stderr
