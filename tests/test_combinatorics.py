from __future__ import annotations

import itertools
import random
from math import factorial

import networkx as nx
import pytest
from conftest import nx_multigraph

from pitvd.combinatorics import (
    Flower,
    find_sunflower,
    flower_in_forest,
    q_expansion,
    sunflower_reduce,
)
from pitvd.multigraph import MultiGraph


# ---------------------------------------------------------------------------
# sunflowers
# ---------------------------------------------------------------------------

def assert_sunflower(family, core, petals, want_count):
    fam = set(frozenset(s) for s in family)
    assert len(petals) == want_count
    assert len(set(petals)) == want_count
    for p in petals:
        assert p in fam
        assert core <= p
    for p, p2 in itertools.combinations(petals, 2):
        assert p & p2 == core


def test_find_sunflower_disjoint_family():
    fam = [{1, 2}, {3, 4}, {5, 6}, {7, 8}]
    core, pets = find_sunflower(fam, 3)
    assert_sunflower(fam, core, pets, 3)
    assert core == frozenset()


def test_find_sunflower_with_core():
    fam = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}]
    got = find_sunflower(fam, 3)
    assert got is not None
    core, pets = got
    assert_sunflower(fam, core, pets, 3)


def test_find_sunflower_absent():
    # pairwise intersections differ: no 3-petal sunflower
    fam = [{1, 2}, {2, 3}, {3, 1}]
    assert find_sunflower(fam, 3) is None


def test_find_sunflower_guaranteed_above_bound():
    rng = random.Random(2)
    for _ in range(40):
        d = rng.randint(2, 3)
        petals = rng.randint(2, 3)
        bound = factorial(d) * (petals - 1) ** d
        universe = range(rng.randint(6, 14))
        fam = set()
        while len(fam) <= bound:
            size = rng.randint(1, d)
            fam.add(frozenset(rng.sample(universe, size)))
        got = find_sunflower(fam, petals)
        assert got is not None, (fam, petals)
        core, pets = got
        assert_sunflower(fam, core, pets, petals)


def min_hitting_set_size(family, universe):
    family = [set(s) for s in family]
    for size in range(len(universe) + 1):
        for cand in itertools.combinations(universe, size):
            cs = set(cand)
            if all(s & cs for s in family):
                return size
    raise AssertionError("unreachable")


def test_sunflower_reduce_preserves_hitting_sets():
    rng = random.Random(8)
    for trial in range(30):
        universe = list(range(rng.randint(5, 9)))
        fam = {frozenset(rng.sample(universe, rng.randint(1, 3)))
               for _ in range(rng.randint(8, 40))}
        k = rng.randint(0, 2)
        red = sunflower_reduce(fam, k)
        assert red <= fam
        d = max(len(s) for s in fam)
        assert len(red) <= factorial(d) * (k + 1) ** d
        before = min_hitting_set_size(fam, universe)
        after = min_hitting_set_size(red, universe)
        # equivalence matters only at the <= k threshold
        assert (before <= k) == (after <= k), (fam, red, k)


def test_sunflower_reduce_small_family_untouched():
    fam = {frozenset({1, 2}), frozenset({3, 4})}
    assert sunflower_reduce(fam, 1) == fam


# ---------------------------------------------------------------------------
# flowers over forests
# ---------------------------------------------------------------------------

def random_forest_with_hub(rng, n, double_frac=0.2, hub_deg=0.6):
    """Forest on ids 1..n plus hub 0 with random single/double edges."""
    g = MultiGraph()
    hub = g.add_vertex()
    ids = [g.add_vertex() for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.8:  # else: start a new tree
            g.add_edge(ids[i], ids[rng.randrange(i)])
    for v in ids:
        if rng.random() < hub_deg:
            g.add_edge(hub, v, 2 if rng.random() < double_frac else 1)
    return g, hub, ids


def validate_flower(g: MultiGraph, hub: int, region, fl: Flower):
    region = set(region)
    # petals: pairwise disjoint, each closes a cycle through the hub
    seen: set[int] = set()
    for petal in fl.petals:
        assert not (set(petal) & seen)
        seen |= set(petal)
        assert set(petal) <= region
        if len(petal) == 1:
            assert g.multiplicity(hub, petal[0]) >= 2
        else:
            assert g.multiplicity(hub, petal[0]) >= 1
            assert g.multiplicity(hub, petal[-1]) >= 1
            for a, b in zip(petal, petal[1:]):
                assert g.has_edge(a, b)
    assert fl.order == len(fl.petals)
    # the cover hits every cycle through the hub inside {hub} | region:
    # 2-cycles via doubled edges, and every anchor-to-anchor forest path
    cov = set(fl.cover)
    assert hub not in cov and cov <= region
    assert len(cov) == fl.order  # equal sizes certify both sides optimal
    doubles = [u for u in region if g.multiplicity(hub, u) >= 2]
    assert set(doubles) <= cov
    anchors = [u for u in region if g.multiplicity(hub, u) == 1]
    sub = g.induced(sorted(region))
    for a, b in itertools.combinations(anchors, 2):
        path = forest_path(sub, a, b)
        if path is not None:
            assert cov & set(path), (a, b, path, cov)


def forest_path(g: MultiGraph, a, b):
    """Unique a-b path in a forest, or None if separated."""
    parent = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            break
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def test_flower_disjoint_triangles():
    g = MultiGraph()
    hub = g.add_vertex()
    for _ in range(4):
        a, b = g.add_vertex(), g.add_vertex()
        g.add_edge(hub, a)
        g.add_edge(hub, b)
        g.add_edge(a, b)
    region = [v for v in g.vertices if v != hub]
    fl = flower_in_forest(g, hub, region)
    assert fl.order == 4
    validate_flower(g, hub, region, fl)


def test_flower_doubles_forced():
    g = MultiGraph()
    hub = g.add_vertex()
    others = [g.add_vertex() for _ in range(3)]
    for v in others:
        g.add_edge(hub, v, 2)
    fl = flower_in_forest(g, hub, others)
    assert fl.order == 3
    assert set(fl.cover) == set(others)
    validate_flower(g, hub, others, fl)


def test_flower_shared_path_counts_once():
    # two anchors joined through one middle vertex: a single petal
    g = MultiGraph.from_edges([(0, 1), (0, 3), (1, 2), (2, 3)])
    fl = flower_in_forest(g, 0, [1, 2, 3])
    assert fl.order == 1
    validate_flower(g, 0, [1, 2, 3], fl)


def test_flower_star_many_anchors():
    # hub sees all leaves of a star: petals pair up through the center
    g = MultiGraph()
    hub = g.add_vertex()
    center = g.add_vertex()
    leaves = [g.add_vertex() for _ in range(5)]
    for v in leaves:
        g.add_edge(center, v)
        g.add_edge(hub, v)
    region = [center] + leaves
    fl = flower_in_forest(g, hub, region)
    # all anchor paths run through the center: one petal, covered there
    assert fl.order == 1
    assert fl.cover == (center,)
    validate_flower(g, hub, region, fl)


def test_flower_empty():
    g = MultiGraph.from_edges([(0, 1)], vertices=[2])
    fl = flower_in_forest(g, 0, [1, 2])
    assert fl.order == 0 and fl.petals == () and fl.cover == ()


def test_flower_random_validation():
    rng = random.Random(55)
    for _ in range(150):
        g, hub, ids = random_forest_with_hub(rng, rng.randint(2, 14))
        fl = flower_in_forest(g, hub, ids)
        validate_flower(g, hub, ids, fl)


def test_flower_rejects_cyclic_region():
    g = MultiGraph.from_edges([(1, 2), (2, 3), (1, 3), (0, 1)])
    try:
        flower_in_forest(g, 0, [1, 2, 3])
    except ValueError:
        return
    raise AssertionError("cyclic region accepted")


def test_flower_rejects_parallel_edge_in_region():
    g = MultiGraph.from_edges([(1, 2, 2), (2, 3), (0, 1), (0, 3)])
    with pytest.raises(ValueError):
        flower_in_forest(g, 0, [1, 2, 3])


def random_region_with_hub(rng, n):
    """A forest on ids 1..n and hub 0, as in ``random_forest_with_hub``,
    plus up to three extra region edges, each doubled one time in four:
    the region may hold cycles and parallel edges, some of them only
    through a doubled neighbor of the hub."""
    g, hub, ids = random_forest_with_hub(rng, n, double_frac=0.3)
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(ids, 2)
        g.add_edge(u, v, 2 if rng.random() < 0.25 else 1)
    return g, hub, ids


def test_flower_matches_a_networkx_oracle_on_random_regions():
    """``flower_in_forest`` raises exactly when the region minus the hub's
    doubled neighbors is not a simple forest; on every region it accepts,
    the petals are disjoint, the cover is as large as the packing, holds
    the doubled neighbors and meets every anchor-to-anchor path."""
    rng = random.Random(1313)
    outcomes = set()
    for _ in range(600):
        g, hub, ids = random_region_with_hub(rng, rng.randint(2, 10))
        doubles = {u for u in ids if g.multiplicity(hub, u) >= 2}
        rest = nx_multigraph(g, [u for u in ids if u not in doubles])
        forest = len(rest) == 0 or nx.is_forest(rest)
        region = nx_multigraph(g, ids)
        cyclic = not nx.is_forest(region)
        outcomes.add((forest, cyclic))
        if not forest:
            with pytest.raises(ValueError):
                flower_in_forest(g, hub, ids)
            continue
        fl = flower_in_forest(g, hub, ids)
        seen: set[int] = set()
        for petal in fl.petals:
            assert seen.isdisjoint(petal)
            seen.update(petal)
        cov = set(fl.cover)
        assert len(fl.cover) == len(cov) == fl.order
        assert doubles <= cov
        anchors = [u for u in ids if g.multiplicity(hub, u) == 1]
        simple = nx.Graph(region)
        for a, b in itertools.combinations(anchors, 2):
            for path in nx.all_simple_paths(simple, a, b):
                assert cov.intersection(path), (a, b, path, cov)
    # rejected, accepted acyclic, and accepted with a cycle only through
    # a doubled neighbor all occurred
    assert outcomes == {(False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# q-expansion
# ---------------------------------------------------------------------------

def validate_expansion(a_items, b_items, nbrs, q, a_hat, b_hat, matching):
    a_items, b_items = set(a_items), set(b_items)
    assert a_hat <= a_items and b_hat <= b_items
    assert set(matching) == a_hat
    used: set = set()
    for a, partners in matching.items():
        assert len(partners) == q
        assert len(set(partners)) == q
        for b in partners:
            assert a in nbrs[b]
            assert b not in used
            used.add(b)
    for b in b_hat:
        assert set(nbrs[b]) <= a_hat
    assert len(b_items) - len(b_hat) <= q * (len(a_items) - len(a_hat))


def test_expansion_saturated():
    nbrs = {10: [0], 11: [0], 12: [0, 1], 13: [1], 14: [1], 15: [0, 1]}
    a_hat, b_hat, m = q_expansion([0, 1], list(nbrs), nbrs, 3)
    assert a_hat == {0, 1}
    assert b_hat == set(nbrs)
    validate_expansion([0, 1], list(nbrs), nbrs, 3, a_hat, b_hat, m)


def test_expansion_partial():
    # a=0 rich, a=1 starved: expansion must keep 0 and drop 1
    nbrs = {10: [0], 11: [0], 12: [0], 13: [0], 14: [1], 15: [0, 1]}
    a_hat, b_hat, m = q_expansion([0, 1], list(nbrs), nbrs, 3)
    assert a_hat == {0}
    validate_expansion([0, 1], list(nbrs), nbrs, 3, a_hat, b_hat, m)
    for b in b_hat:
        assert set(nbrs[b]) == {0}


def test_expansion_classic_nonempty():
    """|B| >= q|A| with no isolated b forces a nonempty A side."""
    rng = random.Random(13)
    for _ in range(200):
        na = rng.randint(1, 4)
        q = rng.choice([1, 2, 3, 5])
        nb = q * na + rng.randint(0, 6)
        nbrs = {j: sorted(rng.sample(range(na), rng.randint(1, na)))
                for j in range(100, 100 + nb)}
        a_hat, b_hat, m = q_expansion(range(na), list(nbrs), nbrs, q)
        validate_expansion(range(na), list(nbrs), nbrs, q, a_hat, b_hat, m)
        assert a_hat, (nbrs, q)
        if nb > q * na:
            assert b_hat


def test_expansion_random_general():
    """Arbitrary bipartite graphs: structural contract only."""
    rng = random.Random(29)
    for _ in range(200):
        na = rng.randint(1, 5)
        nb = rng.randint(0, 12)
        q = rng.choice([1, 2, 3])
        nbrs = {j: sorted(a for a in range(na) if rng.random() < 0.4)
                for j in range(nb)}
        a_hat, b_hat, m = q_expansion(range(na), range(nb), nbrs, q)
        validate_expansion(range(na), range(nb), nbrs, q, a_hat, b_hat, m)


def test_expansion_degenerate_empty_sides():
    a_hat, b_hat, m = q_expansion([0], [5], {5: [0]}, 5)
    assert a_hat == set() and m == {}
    validate_expansion([0], [5], {5: [0]}, 5, a_hat, b_hat, m)
