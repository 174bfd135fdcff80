from __future__ import annotations

import random

import networkx as nx
import pytest
from conftest import (degree2_paths_reference, nx_multigraph,
                      random_multigraph, random_near_tree, rule1_by_rescan,
                      rule2_by_rescan, rule3_by_rescan)
from hypothesis import given, settings, strategies as st

from pitvd import rules as R
from pitvd.multigraph import MultiGraph


def build(edges, vertices=()):
    return MultiGraph.from_edges(edges, vertices=vertices)


def test_add_and_query_edges():
    g = build([(0, 1), (1, 2, 3)])
    assert g.vertices == [0, 1, 2]
    assert g.multiplicity(0, 1) == 1
    assert g.multiplicity(1, 2) == 3
    assert g.multiplicity(0, 2) == 0
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degree(1) == 4
    assert len(g.neighbors(1)) == 2
    assert g.edge_count == 4
    assert len(list(g.edges())) == 2


def test_edge_count_matches_the_edge_list():
    rng = random.Random(77)
    for trial in range(100):
        g = random_multigraph(rng, rng.randint(0, 12),
                              rng.choice((0.2, 0.5)), 0.3)
        if trial % 2 and g.n > 1:
            g.add_edge(0, 1, 3)
        assert g.edge_count == sum(m for *_, m in g.edges())


def test_from_edges_accumulates_duplicates():
    g = build([(0, 1), (1, 0), (0, 1, 2)])
    assert g.multiplicity(0, 1) == 4


def test_self_loop_rejected():
    g = build([(0, 1)])
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_nonpositive_multiplicity_rejected():
    g = build([(0, 1)])
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 1, -2)


def test_missing_endpoint_rejected():
    g = build([(0, 1)])
    with pytest.raises(KeyError):
        g.add_edge(0, 7)


def test_set_multiplicity_zero_removes():
    g = build([(0, 1, 2)])
    g.set_multiplicity(0, 1, 0)
    assert not g.has_edge(0, 1)
    assert g.neighbors(0) == []


@pytest.mark.parametrize("multiplicity", [0, 1])
def test_set_multiplicity_missing_endpoint_leaves_graph_unchanged(
        multiplicity):
    g = build([(0, 1)])
    for u, v in ((0, 99), (99, 0), (98, 99)):
        with pytest.raises(KeyError):
            g.set_multiplicity(u, v, multiplicity)
        assert g == build([(0, 1)])
        assert g.neighbors(0) == [1]
        assert list(g.edges()) == [(0, 1, 1)]
    g.delete_vertex(0)
    assert g.vertices == [1]


def test_fresh_ids_never_reused():
    g = build([(0, 1), (1, 2)])
    g.delete_vertex(2)
    assert g.add_vertex() == 3
    g2 = MultiGraph()
    a = g2.add_vertex()
    b = g2.add_vertex()
    assert (a, b) == (0, 1)


def test_delete_vertex_clears_incidence():
    g = build([(0, 1), (1, 2), (0, 2)])
    g.delete_vertex(1)
    assert g.vertices == [0, 2]
    assert g.neighbors(0) == [2]
    assert g.edge_count == 1


def test_components_and_induced():
    g = build([(0, 1), (2, 3), (3, 4)], vertices=[5])
    assert g.components() == [[0, 1], [2, 3, 4], [5]]
    sub = g.induced([2, 3, 4])
    assert sub.vertices == [2, 3, 4]
    assert sub.has_edge(2, 3) and sub.has_edge(3, 4) and not sub.has_edge(2, 4)
    # induced copy preserves the id counter of the parent
    assert sub.add_vertex() == 6


def test_subset_queries_match_induced_copy():
    rng = random.Random(2024)
    outcomes = set()
    for trial in range(300):
        if trial % 2:
            g = random_multigraph(rng, rng.randint(1, 12),
                                  rng.choice((0.15, 0.3, 0.5)), 0.15)
        else:
            g = random_near_tree(rng, rng.randint(1, 14))
        vs = [v for v in g.vertices if rng.random() < 0.7]
        sub = g.induced(vs)
        for arg in (vs, set(vs), frozenset(vs)):
            assert g.components(arg) == sub.components()
        for v in vs:
            assert g.component_of(v, vs) == sub.component_of(v)
        assert g.components(g.vertices) == g.components()
        outcomes.add(len(sub.components()))
    # empty, connected and disconnected subsets all occurred
    assert {0, 1, 2} <= outcomes


def test_subset_queries_reject_missing_vertices():
    g = build([(0, 1)])
    for query in (g.components, g.double_edges, g.compact):
        with pytest.raises(KeyError):
            query([0, 7])


def test_subset_queries_copy_the_subset_at_most_once(monkeypatch):
    """A query builds one membership set, not one per component.

    Every ``set(...)`` built inside ``multigraph`` is counted; a copy per
    component would make the whole-graph search quadratic on a graph of
    many small components.
    """
    import pitvd.multigraph as mg

    class CountingSet(set):
        built = 0

        def __init__(self, *args):
            CountingSet.built += 1
            super().__init__(*args)

    monkeypatch.setattr(mg, "set", CountingSet, raising=False)
    triangles = [(u, u + t) for u in range(0, 300, 3) for t in (1, 2)]
    triangles += [(u + 1, u + 2) for u in range(0, 300, 3)]
    g = build(triangles, vertices=range(300, 700))
    for query, expected in ((lambda: len(g.components()), 500),
                            (lambda: len(g.components(g.vertices)), 500),
                            (lambda: len(g.components(range(300, 700))), 400)):
        CountingSet.built = 0
        assert query() == expected
        assert CountingSet.built <= 2


def test_hanging_trees_contract():
    """Each stripped tree is a simple tree joined to the rest of ``vs`` by
    the plain edge wu alone, ``keep`` is never stripped, and no leaf is
    left; with nothing kept, a component strips to one vertex exactly
    when it is a simple tree."""
    rng = random.Random(4242)
    outcomes = set()
    for trial in range(300):
        if trial % 2:
            g = random_multigraph(rng, rng.randint(1, 12),
                                  rng.choice((0.15, 0.3)), 0.15)
        else:
            g = random_near_tree(rng, rng.randint(1, 14))
        vs = None if trial % 3 == 0 else [v for v in g.vertices
                                          if rng.random() < 0.8]
        members = set(g.vertices if vs is None else vs)
        keep = () if trial % 4 < 2 else {v for v in members
                                         if rng.random() < 0.3}
        hung = g.hanging_trees(vs, keep=keep)
        stripped = [u for _, u, _ in hung]
        assert len(set(stripped)) == len(stripped)
        assert not set(stripped) & set(keep)
        for i, (w, u, tree) in enumerate(hung):
            assert u in tree and set(tree) <= set(stripped[:i + 1])
            assert w in members and w not in stripped[:i + 1]
            assert nx.is_tree(nx_multigraph(g, tree))
            out = [(a, b) for a in tree for b in g.neighbors(a)
                   if b in members and b not in tree]
            assert out == [(u, w)] and g.multiplicity(u, w) == 1
        left = members - set(stripped)
        for v in left - set(keep):
            nbrs = [y for y in g.neighbors(v) if y in left]
            assert len(nbrs) != 1 or g.multiplicity(v, nbrs[0]) > 1
        if not keep:
            for comp in g.components(members):
                rest = left.intersection(comp)
                assert (len(rest) == 1) == nx.is_tree(nx_multigraph(g, comp))
                outcomes.add(len(rest) == 1)
        outcomes.add(bool(hung))
    assert outcomes == {True, False}


def test_is_simple_and_double_edges():
    g = build([(0, 1), (1, 2, 2), (3, 4, 3)])
    assert g.double_edges() == [(1, 2), (3, 4)]
    assert g.double_edges([0, 1, 2]) == [(1, 2)]
    assert g.double_edges({0, 1, 3}) == []
    g.set_multiplicity(1, 2, 1)
    g.set_multiplicity(3, 4, 1)
    assert g.double_edges() == []


def test_compact_view():
    g = build([(10, 20), (20, 30, 2)], vertices=[40])
    ids, index, masks = g.compact()
    assert ids == [10, 20, 30, 40]
    assert index == {10: 0, 20: 1, 30: 2, 40: 3}
    assert masks[index[20]] == (1 << index[10]) | (1 << index[30])
    assert masks[index[40]] == 0


def test_equality_ignores_insertion_order():
    a = build([(0, 1), (1, 2)])
    b = build([(1, 2), (0, 1)])
    assert a == b
    b.add_edge(0, 1)
    assert a != b


# -- degree-2 path decomposition --------------------------------------------

def kinds(g):
    return [(p.kind, p.vertices) for p in g.find_degree2_paths()]


def test_deg2_pure_path_component():
    g = build([(1, 2), (2, 3), (3, 4), (4, 5)])
    assert kinds(g) == [("other", (1, 2, 3, 4, 5))]


def test_deg2_tail_on_claw():
    # claw center 0 with one leg subdivided twice
    g = build([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    paths = g.find_degree2_paths()
    assert ("tail", (0, 3, 4, 5)) in kinds(g)
    assert all(p.kind == "tail" or len(p.vertices) <= 3 for p in paths)


def test_deg2_overbridge():
    # two hubs joined by a subdivided edge
    edges = [(0, 1), (0, 2), (0, 3), (7, 8), (7, 9), (7, 10), (3, 5), (5, 6), (6, 7)]
    g = build(edges)
    assert ("other", (0, 3, 5, 6, 7)) in kinds(g)


def test_deg2_overbridge_between_high_degree():
    g = build([(0, 1), (0, 2), (0, 9), (9, 3), (3, 8), (8, 4), (8, 5), (8, 6)])
    assert ("other", (0, 9, 3, 8)) in kinds(g)


def test_deg2_pure_cycle_rotated_to_min():
    g = build([(4, 7), (7, 5), (5, 9), (9, 4)])
    (path,) = g.find_degree2_paths()
    assert path.kind == "other"
    assert path.vertices[0] == 4
    assert set(path.vertices) == {4, 5, 7, 9}


def test_deg2_anchored_cycle():
    # cycle hanging off a hub: anchor listed first, not duplicated
    g = build([(0, 1), (0, 2), (0, 8), (0, 3), (3, 4), (4, 5), (5, 0)])
    hit = [p for p in g.find_degree2_paths() if len(p.vertices) == 4]
    assert len(hit) == 1
    assert hit[0].vertices[0] == 0
    assert hit[0].kind == "other"
    assert sorted(hit[0].vertices) == [0, 3, 4, 5]


def _deg2_families(rng):
    """Seeded multigraphs of three families: trees with a few extra or
    doubled edges, sparse random graphs with some doubled edges, and
    relabelled cycles with trees hung on them."""
    for i in range(10_000):
        n = rng.randint(1, 16)
        if i % 3 == 0:
            yield random_near_tree(rng, n)
        elif i % 3 == 1:
            yield random_multigraph(rng, n, rng.uniform(0.1, 0.3), 0.05)
        else:
            label = rng.sample(range(3 * n), n)
            c = rng.randint(3, n) if n >= 3 else 0
            edges = [(label[j], label[(j + 1) % c]) for j in range(c)]
            edges += [(label[rng.randrange(v)], label[v])
                      for v in range(max(c, 1), n)]
            yield build(edges, vertices=label)


def test_deg2_paths_match_the_two_sided_walk():
    """One walk per chain finds the paths, kinds and orientations of the
    forward-then-prepend walk it replaced."""
    rng = random.Random(1212)
    seen = set()
    for g in _deg2_families(rng):
        got = g.find_degree2_paths()
        assert got == degree2_paths_reference(g), list(g.edges())
        seen.update(p.kind for p in got)
    assert seen == {"tail", "other"}


def test_deg2_double_edge_blocks_chain():
    # a vertex incident to a parallel edge is never a chain interior
    g = build([(0, 1), (1, 2, 2), (2, 3), (3, 4)])
    for p in g.find_degree2_paths():
        assert 1 not in p.vertices[1:-1]
        assert 2 not in p.vertices[1:-1]


def test_deg2_isolated_and_k2_skipped():
    g = build([(0, 1)], vertices=[9])
    assert g.find_degree2_paths() == []


@given(st.integers(0, 2 ** 15 - 1))
def test_deg2_paths_cover_each_chain_vertex_once(code):
    # random simple graph on 6 vertices; every degree-2 chain vertex must
    # appear in exactly one reported path, always as an interior or endpoint
    edges = []
    i = 0
    for u in range(6):
        for v in range(u + 1, 6):
            if (code >> i) & 1:
                edges.append((u, v))
            i += 1
    g = build(edges, vertices=range(6))
    chain = {v for v in g.vertices
             if len(g.neighbors(v)) == 2 and g.degree(v) == 2}
    seen: dict[int, int] = {}
    for p in g.find_degree2_paths():
        inner = [v for v in p.vertices if v in chain]
        for v in inner:
            seen[v] = seen.get(v, 0) + 1
        # consecutive vertices really are edges
        for a, b in zip(p.vertices, p.vertices[1:]):
            assert g.has_edge(a, b)
    assert seen.keys() == chain
    assert all(c == 1 for c in seen.values())


def assert_bookkeeping_is_current(g: MultiGraph) -> None:
    """The edge count, the heavy-edge index and the doubled-neighbour
    counts equal a recount from ``edges()``, rules 1-3 fire as their
    rescanning oracles do, every vertex either maps to its current,
    unclean component in the verdict map or waits on the pending heap,
    and the degree-2 paths and pendant trees equal a fresh copy's."""
    fresh = g.copy()
    assert g.find_degree2_paths() == fresh.find_degree2_paths()
    assert g.pendant_trees() == fresh.pendant_trees()
    edges = list(g.edges())
    assert g.edge_count == sum(m for *_, m in edges)
    heavy = [(u, v) for u, v, m in edges if m > 2]
    assert g.least_heavy_edge() == (heavy[0] if heavy else None)
    assert set(heavy) <= set(g._heavy)
    doubled: dict[int, int] = {}
    for u, v, m in edges:
        if m >= 2:
            doubled[u] = doubled.get(u, 0) + 1
            doubled[v] = doubled.get(v, 0) + 1
    assert g._doubled == doubled
    assert g.double_edges() == [(u, v) for u, v, m in edges if m >= 2]
    for k in range(3):
        for rule, oracle in ((R.rule1_drop_clean_component, rule1_by_rescan),
                             (R.rule2_cap_multiplicity, rule2_by_rescan),
                             (R.rule3_many_double_edges, rule3_by_rescan)):
            assert rule(g, k) == oracle(g, k)
    pending = set(g._pending)
    for v in g.vertices:
        if v in g._judged:
            assert g._judged[v] == g.component_of(v)
            assert not R.component_clean(g, g._judged[v])
        else:
            assert v in pending


EDITS = st.lists(st.tuples(
    st.sampled_from(["vertex", "edge", "mult", "delete", "copy", "induced",
                     "fire"]),
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 3)), max_size=40)


@settings(max_examples=150, deadline=None)
@given(EDITS)
def test_bookkeeping_survives_every_edit(edits):
    """Random edit sequences, checked after every step; "fire" applies
    the first of rules 1-7 that fires at k = 1, as the driver would."""
    g = MultiGraph.from_edges([(0, 1, 3), (1, 2, 2), (2, 3)],
                              vertices=range(6))
    assert_bookkeeping_is_current(g)
    for op, a, b, m in edits:
        vs = g.vertices
        u, v = (vs[a % len(vs)], vs[b % len(vs)]) if vs else (None, None)
        if op == "vertex":
            g.add_vertex()
        elif op == "edge" and u != v:
            g.add_edge(u, v, m + 1)
        elif op == "mult" and u != v:
            g.set_multiplicity(u, v, m)
        elif op == "delete" and vs:
            g.delete_vertex(u)
        elif op == "copy":
            g = g.copy()
        elif op == "induced":
            g = g.induced(vs[::2] if m % 2 else vs[a % 3:])
        elif op == "fire":
            for rule in R.RULES[:7]:
                app = rule[2](g, 1)
                if app is not None:
                    R.apply_ops(g, app.ops)
                    break
        assert_bookkeeping_is_current(g)


def test_from_edges_builds_what_edge_by_edge_building_builds():
    """The bulk construction sums repeated pairs, creates the listed and
    the edge-named vertices, and leaves the same bookkeeping, ids and
    answers as building one edge at a time."""
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = []
        for _ in range(rng.randint(0, 20)):
            u, v = rng.sample(range(n + 3), 2)
            edges.append((u, v) if rng.random() < 0.5
                         else (u, v, rng.randint(1, 3)))
        vertices = rng.sample(range(n + 5), rng.randint(0, n))
        want = MultiGraph()
        for v in vertices:
            want.ensure_vertex(v)
        for e in edges:
            want.ensure_vertex(e[0])
            want.ensure_vertex(e[1])
            want.add_edge(*e)
        got = MultiGraph.from_edges(edges, vertices)
        assert got == want
        assert got.edge_count == want.edge_count
        assert got.double_edges() == want.double_edges()
        assert got.least_heavy_edge() == want.least_heavy_edge()
        assert got.add_vertex() == want.add_vertex()
        assert_bookkeeping_is_current(got)
    for bad in ([(1, 1)], [(0, 1, 0)], [(-1, 2)]):
        with pytest.raises(ValueError):
            MultiGraph.from_edges(bad)
    with pytest.raises(ValueError):
        MultiGraph.from_edges([], vertices=[-3])
