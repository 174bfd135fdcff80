"""Per-rule trigger and edit semantics, plus oracle-checked safety walks.

Fixed configurations pin down exactly what each rule fires on and what it
edits; the random walks let the first seven rules chew through arbitrary
multigraphs and confirm after every single edit that the exact decision
is unchanged.
"""

import os
import random
import subprocess
import sys
import textwrap

import networkx as nx
import pytest

import pitvd
from pitvd import rules as R
from pitvd.cliques import clique_path
from pitvd.exact import decide
from pitvd.flows import min_vertex_separator
from pitvd.marking import unmarked_vertices
from pitvd.modulator import classify_tree_side
from pitvd.multigraph import MultiGraph
from pitvd.recognition import is_pitg

from conftest import (cyclic_side, degree2_paths_reference,
                      free_runs_by_rescan, nx_multigraph,
                      pendant_trees_by_copy, random_forest,
                      random_multigraph, random_near_tree, tree_and_cyclic,
                      unit_interval_graph)


def strip(n):
    """Squared path on 1..n: a proper interval strip of triangles."""
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(i, i + 2) for i in range(1, n - 1)]
    return MultiGraph.from_edges(edges)


def apply(g, app):
    h = g.copy()
    R.apply_ops(h, app.ops)
    return h


def test_apply_ops_rejects_an_unknown_op():
    g = strip(4)
    with pytest.raises(ValueError, match="unknown op"):
        R.apply_ops(g, [("swap", 1, 2)])


# ---------------------------------------------------------------------------
# rules 1-7: raw graph
# ---------------------------------------------------------------------------

def test_rule1_deletes_first_clean_component():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (3, 4, 2)])
    app = R.rule1_drop_clean_component(g, 0)
    assert app.rule == "1" and app.k_delta == 0
    assert app.ops == (("del", 0), ("del", 1), ("del", 2))


def test_rule1_leaves_dirty_components():
    hole = MultiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert R.rule1_drop_clean_component(hole, 2) is None


def test_rule1_builds_only_the_components_it_reaches(monkeypatch):
    """Rule 1 stops at its first clean component: on many isolated
    vertices one call builds one component, and after a hole it builds
    two."""
    built = []
    orig = MultiGraph.component_of

    def spy(self, v, vs=None):
        built.append(v)
        return orig(self, v, vs)

    monkeypatch.setattr(MultiGraph, "component_of", spy)
    lone = MultiGraph.from_edges([], vertices=range(500))
    assert R.rule1_drop_clean_component(lone, 0).ops == (("del", 0),)
    assert built == [0]
    built.clear()
    g = MultiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)],
                              vertices=range(8))
    assert R.rule1_drop_clean_component(g, 1).ops == (("del", 4), ("del", 5))
    assert built == [0, 4]


def test_rule1_picks_the_first_clean_component_by_minimum_id():
    """The component rule 1 deletes is the first clean one of
    ``g.components()``, so the walk changes no trace."""
    rng = random.Random(1518)
    fired = 0
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.4),
                              double_frac=0.1)
        want = next((c for c in g.components()
                     if R.component_clean(g, c)), None)
        app = R.rule1_drop_clean_component(g, 0)
        if want is None:
            assert app is None
        else:
            assert app.ops == tuple(("del", v) for v in want)
            fired += 1
    assert 50 <= fired < 300


def test_rule2_caps_first_heavy_edge():
    g = MultiGraph.from_edges([(0, 1, 3), (0, 2, 4)])
    app = R.rule2_cap_multiplicity(g, 1)
    assert app.ops == (("mult", 0, 1, 2),)
    h = apply(g, app)
    assert h.multiplicity(0, 1) == 2 and h.multiplicity(0, 2) == 4


def test_rule3_takes_vertex_with_many_doubles():
    g = MultiGraph.from_edges([(0, 1, 2), (0, 2, 2), (1, 2)])
    app = R.rule3_many_double_edges(g, 1)
    assert app.ops == (("del", 0),) and app.k_delta == -1
    assert R.rule3_many_double_edges(g, 2) is None


def test_rule4_trims_tail_to_one_edge():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    app = R.rule4_trim_tail(g, 0)
    assert app.ops == (("del", 4), ("del", 5))
    assert app.affected == (2, 3, 4, 5)


def test_rule5_shrinks_overbridge():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2),
                               (10, 11), (11, 12), (10, 12),
                               (2, 3), (3, 4), (4, 5), (5, 6), (6, 10)])
    app = R.rule5_shrink_degree2_path(g, 0)
    assert app.ops == (("del", 4), ("del", 5), ("edge", 3, 6, 1))
    h = apply(g, app)
    assert h.has_edge(3, 6) and not h.has_vertex(4)


def test_rule5_shrinks_pure_cycle_to_square():
    g = MultiGraph.from_edges([(i, (i + 1) % 7) for i in range(7)])
    app = R.rule5_shrink_degree2_path(g, 1)
    assert app.ops == (("del", 2), ("del", 3), ("del", 4), ("edge", 1, 5, 1))
    h = apply(g, app)
    assert sorted(h.vertices) == [0, 1, 5, 6]
    assert all(len(h.neighbors(v)) == 2 for v in h.vertices)  # a 4-cycle


def test_rule5_shrinks_anchored_cycle():
    g = MultiGraph.from_edges([(0, 8), (0, 9), (8, 9),
                               (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    app = R.rule5_shrink_degree2_path(g, 1)
    assert app.ops == (("del", 2), ("del", 3), ("edge", 1, 4, 1))
    h = apply(g, app)
    assert h.has_edge(1, 4) and h.has_edge(5, 0) and h.has_edge(0, 1)


def test_rule5_shrinks_anchored_cycle_from_interior_least_vertex():
    """The least chain vertex 1 sits inside the cycle hanging at 9, so
    the path reads 9, 7, 4, 1, 3, 5, 6: it starts at the anchor and
    follows 1 by its lesser chain neighbour 3."""
    g = MultiGraph.from_edges([(9, 10), (9, 11), (10, 11),
                               (9, 7), (7, 4), (4, 1), (1, 3), (3, 5),
                               (5, 6), (6, 9)])
    app = R.rule5_shrink_degree2_path(g, 1)
    assert app.affected == (9, 7, 4, 1, 3, 5, 6)
    assert app.ops == (("del", 4), ("del", 1), ("del", 3), ("edge", 7, 5, 1))
    h = apply(g, app)
    assert h.has_edge(7, 5) and h.has_edge(9, 7) and h.has_edge(6, 9)


def test_rule6_keeps_nearest_claw():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2),
                               (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 8)])
    app = R.rule6_prune_pendant_tree(g, 0)
    assert app.ops == (("del", 6), ("del", 7), ("del", 8))


def test_rule6_walks_to_a_deeper_brancher():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2),
                               (2, 3), (3, 4), (4, 5), (4, 6), (5, 7)])
    app = R.rule6_prune_pendant_tree(g, 0)
    assert app.ops == (("del", 7),)


def test_branch_path_walks_to_the_nearest_branch_vertex():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2),
                               (2, 3), (3, 4), (4, 5), (4, 6), (5, 7)])
    assert R.branch_path(g, 2, [3, 4, 5, 6, 7]) == [2, 3, 4]
    # a plain pendant path has no branch vertex: the walk says so
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    with pytest.raises(AssertionError, match="before a branch vertex"):
        R.branch_path(g, 2, [3, 4])
    with pytest.raises(AssertionError, match="hangs by one edge"):
        R.branch_path(g, 0, [3, 4])


def test_rule6_ignores_plain_paths():
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert R.rule6_prune_pendant_tree(g, 0) is None


def test_rule7_keeps_three_pendant_trees():
    g = MultiGraph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4),
                               (1, 5), (2, 6), (3, 7), (4, 8)])
    app = R.rule7_limit_pendant_trees(g, 0)
    assert app.ops == (("del", 4), ("del", 8))
    assert R.rule7_limit_pendant_trees(apply(g, app), 0) is None


def test_pendant_trees_exclude_heavy_links():
    g = MultiGraph.from_edges([(0, 1, 2), (0, 2), (0, 3), (0, 4)])
    assert [min(t) for t in g.pendant_trees()[0]] == [2, 3, 4]


def test_pendant_trees_match_the_copy_based_oracle():
    """At every vertex of a component that is not a simple tree and that
    lies in no pendant tree, the map lists exactly the pendant trees of
    the copy-based oracle; no key lies inside another key's tree."""
    rng = random.Random(606)
    found = 0
    for trial in range(240):
        n = rng.randint(2, 14)
        kind = trial % 4
        if kind == 0:
            g = random_multigraph(rng, n, rng.choice((0.15, 0.3)), 0.15)
        elif kind == 1:
            g = random_near_tree(rng, n)
        elif kind == 2:
            g = random_forest(rng, n)
        else:
            g = tree_and_cyclic(rng, n)
        trees = g.pendant_trees()
        assert list(trees) == sorted(trees)
        inside = {u for ts in trees.values() for t in ts for u in t}
        assert not inside.intersection(trees)
        for comp in g.components():
            if nx.is_tree(nx_multigraph(g, comp)):
                continue
            for x in comp:
                if x not in inside:
                    got = trees.get(x, [])
                    assert got == pendant_trees_by_copy(g, x)
                    found += len(got)
    assert found > 0


def test_pendant_tree_readers_walk_the_components_once(monkeypatch):
    """Rules 6 and 7 read every pendant tree from one whole-graph
    leaf-stripping pass, with no ``components()`` walk, and the audit's
    count of walks does not grow with the graph.  Each spider is a tree
    component, left with its centre as a key, and each paw has one key,
    its triangle corner."""
    from pitvd.audit import audit_violations

    calls = []
    orig = MultiGraph.components

    def counted(self, *args):
        calls.append(args)
        return orig(self, *args)

    monkeypatch.setattr(MultiGraph, "components", counted)

    def gadgets(copies, paws=True):
        # spiders with three legs of two vertices, and triangles with a
        # pendant path of two
        edges = []
        for b in range(0, 20 * copies, 20):
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 3), (b + 3, b + 4),
                      (b, b + 5), (b + 5, b + 6)]
            if paws:
                edges += [(b + 10, b + 11), (b + 11, b + 12),
                          (b + 10, b + 12), (b + 10, b + 13),
                          (b + 13, b + 14)]
        return MultiGraph.from_edges(edges)

    audit_calls = []
    for copies in (5, 40):
        g = gadgets(copies)
        assert len(g.pendant_trees()) == 2 * copies
        for rule in (R.rule6_prune_pendant_tree, R.rule7_limit_pendant_trees):
            calls.clear()
            rule(g, 0)
            assert len(calls) == 0
        # a forest keeps the audit's base set empty, so nothing but the
        # pendant trees scales with the number of components
        calls.clear()
        audit_violations(gadgets(copies, paws=False), 0)
        audit_calls.append(len(calls))
    assert audit_calls[0] == audit_calls[1]


def test_rules_4_to_7_walk_the_chains_and_pendant_trees_once(monkeypatch):
    """The graph keeps its degree-2 paths and pendant trees across
    edits: a sweep of rules 4-7 that fires nothing, and the audit's
    sweep plus its pendant-tree bound, each walk the pendant trees at
    most once.  A deletion inside the pendant trees is patched into the
    map without a whole-graph pass, and an edge edit makes the next sweep
    strip the whole graph again.  The chains are walked whole only while
    no list is kept, on the copy's first sweep and in the audit's copy;
    after an edit the list is repaired, and equals a fresh walk's."""
    from pitvd.audit import audit_violations

    walks = {"chains": 0, "trees": 0}
    walk_paths, hanging_trees = (MultiGraph._walk_degree2_paths,
                                 MultiGraph.hanging_trees)

    def counted_paths(self, chain=None):
        walks["chains"] += chain is None
        return walk_paths(self, chain)

    def counted_trees(self, vs=None, keep=(), parent=None):
        # the strata strip only the tree side; count whole-graph passes
        walks["trees"] += vs is None
        return hanging_trees(self, vs, keep, parent)

    monkeypatch.setattr(MultiGraph, "_walk_degree2_paths", counted_paths)
    monkeypatch.setattr(MultiGraph, "hanging_trees", counted_trees)

    def sweep(chains: int, trees: int) -> None:
        for _, _, rule in R.RULES[3:7]:
            assert rule(g, 1) is None
        assert walks == {"chains": chains, "trees": trees}
        assert g.find_degree2_paths() == degree2_paths_reference(g)
        assert g.pendant_trees() == g.copy().pendant_trees()
        walks.update(chains=0, trees=0)

    # a 4-cycle through one triangle corner, two pendant vertices at
    # another and one at the third
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                               (4, 5), (5, 0), (1, 8), (1, 9), (2, 11)])
    assert g.find_degree2_paths() and g.pendant_trees()
    g = g.copy()
    walks.update(chains=0, trees=0)
    sweep(chains=1, trees=1)
    sweep(chains=0, trees=0)
    g.delete_vertex(9)
    sweep(chains=0, trees=0)
    g.add_edge(8, 11)
    assert g.find_degree2_paths() == degree2_paths_reference(g)
    g.set_multiplicity(8, 11, 0)
    sweep(chains=0, trees=1)
    assert audit_violations(g, 1) == []
    assert walks == {"chains": 1, "trees": 1}


# ---------------------------------------------------------------------------
# rules 8-14: against the strata
# ---------------------------------------------------------------------------

def hub_and_path(hanger_at):
    edges = [(0, 1), (0, 9)] + [(i, i + 1) for i in range(1, 9)]
    nxt = 10
    for h in hanger_at:
        edges.append((h, nxt))
        nxt += 1
    return MultiGraph.from_edges(edges)


def test_rule8_deletes_hangers_of_bad_hooks():
    g = hub_and_path([3, 5, 7])
    mod = classify_tree_side(g, [0])
    app = R.rule8_remove_bad_hangers(g, 1, mod)
    assert app.ops == (("del", 11),)   # only the middle hook is bad
    assert 5 in app.affected


def test_rule8_idle_when_all_hooks_good():
    g = hub_and_path([4, 6])
    mod = classify_tree_side(g, [0])
    assert R.rule8_remove_bad_hangers(g, 1, mod) is None


def flower_hub(petals):
    edges = []
    for i in range(petals):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(a, b), (0, a), (0, b)]
    return MultiGraph.from_edges(edges)


def test_rule9_deletes_heavy_flower_hub():
    g = flower_hub(3)
    mod = classify_tree_side(g, [0])
    app = R.rule9_flower(g, 0, mod)
    assert app.ops == (("del", 0),) and app.k_delta == -1
    assert R.rule9_flower(g, 1, mod) is None   # needs 4k+3 = 7 petals now


def shared_fan(m):
    """Vertices 0 and 1 both joined to m isolated tree-side singletons."""
    edges = []
    for c in range(2, 2 + m):
        edges += [(0, c), (1, c)]
    return MultiGraph.from_edges(edges)


def test_rule10_rewires_heavy_contact_vertex():
    g = shared_fan(20)
    mod = classify_tree_side(g, [0, 1])
    app = R.rule10_rewire_expansion(g, 1, mod)
    assert app.rule == "10" and app.k_delta == 0
    drops = [op for op in app.ops if op[3] == 0]
    assert len(drops) == 5 and all(op[1] == 0 for op in drops)
    assert app.ops[-1] == ("mult", 0, 1, 2)
    h = apply(g, app)
    assert h.edge_count == g.edge_count - 3
    assert (decide(g, 1) is None) == (decide(h, 1) is None)


def test_rule10_needs_the_degree_bound():
    g = shared_fan(18)   # one contact short of 7(|S|+0)+5 = 19
    mod = classify_tree_side(g, [0, 1])
    assert R.rule10_rewire_expansion(g, 1, mod) is None


def triangles_on_hub(m):
    edges = []
    for i in range(m):
        a = 1 + 3 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2), (0, a)]
    return MultiGraph.from_edges(edges)


def test_rule11_deletes_expanded_base_vertices():
    g = triangles_on_hub(3)
    mod = classify_tree_side(g, [0])
    app = R.rule11_delete_expansion_side(g, 1, mod)
    assert app.ops == (("del", 0),) and app.k_delta == -1


def test_rule11_needs_three_components_per_base_vertex():
    g = triangles_on_hub(2)
    mod = classify_tree_side(g, [0])
    assert R.rule11_delete_expansion_side(g, 1, mod) is None


def test_rule12_deletes_wide_clique_neighbor():
    g = strip(15)
    blocks = clique_path(g, g.components()[0]).cliques
    assert len(blocks) == 5
    g.ensure_vertex(0)
    for blk in blocks:
        g.add_edge(0, blk[0])
    mod = classify_tree_side(g, [0])
    app = R.rule12_many_cliques_neighbor(g, 0, mod)
    assert app.ops == (("del", 0),) and app.k_delta == -1
    assert R.rule12_many_cliques_neighbor(g, 1, mod) is None   # needs 11


def rule13_instance():
    """A 22-block strip tied to base vertex 0 at both ends: at k = 1 rule
    13 has one free run long enough to fire in."""
    g = strip(66)
    g.ensure_vertex(0)
    g.add_edge(0, 1)
    g.add_edge(0, 66)
    return g, classify_tree_side(g, [0])


def test_rule13_bypasses_a_clique_in_a_free_run():
    g, mod = rule13_instance()
    v1 = sorted(cyclic_side(mod))
    blocks = clique_path(g.induced(v1), v1).cliques
    app = R.rule13_bypass_clique(g, 1, mod)
    assert app.rule == "13" and app.k_delta == 0
    gone = tuple(sorted(op[1] for op in app.ops if op[0] == "del"))
    assert gone in (blocks[9], blocks[10], blocks[11])
    joins = [op for op in app.ops if op[0] == "edge"]
    assert len(joins) == 4
    h = apply(g, app)
    assert h.n == g.n - 3
    assert (decide(g, 1) is None) == (decide(h, 1) is None)


#: name -> (rules attribute, stand-in, message of the check it trips)
RULE13_BREAKS = {
    # a separator through every vertex meets all three middle cliques
    "separator": ("min_vertex_separator", lambda h, x, y: h.vertices,
                  "x-y separator meets all three middle cliques"),
    # flanks taken from the middle clique itself are adjacent
    "flanks": ("attachment", lambda g, flank, mid: list(mid),
               "flanking cliques of a partition are never adjacent"),
}


@pytest.mark.parametrize("name", sorted(RULE13_BREAKS))
def test_rule13_checks_raise(monkeypatch, name):
    attr, stand_in, message = RULE13_BREAKS[name]
    g, mod = rule13_instance()
    monkeypatch.setattr(R, attr, stand_in)
    with pytest.raises(AssertionError, match=message):
        R.rule13_bypass_clique(g, 1, mod)


@pytest.mark.parametrize("name", sorted(RULE13_BREAKS))
def test_rule13_checks_survive_python_O(name):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.dirname(__file__)!r})
        import test_rules as T
        assert False, "asserts must be stripped"
        attr, stand_in, _ = T.RULE13_BREAKS[{name!r}]
        setattr(T.R, attr, stand_in)
        g, mod = T.rule13_instance()
        T.R.rule13_bypass_clique(g, 1, mod)
    """)
    src = os.path.dirname(os.path.dirname(pitvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    message = RULE13_BREAKS[name][2]
    assert f"AssertionError: {message}" in done.stderr, done.stderr


def test_rule13_cut_on_six_cliques_is_the_component_cut():
    """Rule 13 cuts x from y on the six cliques from x's to y's.  On
    random unit-interval components, at every start i with a clique
    i + 5, that cut is the one on the whole component (the oracle)."""
    rng = random.Random(13)
    starts = 0
    for _ in range(60):
        n = rng.randint(40, 120)
        g = unit_interval_graph(rng, n, n / rng.uniform(2.5, 6.0))
        for comp in g.components():
            cliques = clique_path(g, comp).cliques
            whole = g.induced(comp)
            for i in range(len(cliques) - 5):
                x, y = cliques[i][0], cliques[i + 5][0]
                six = [v for kq in cliques[i:i + 6] for v in kq]
                assert (min_vertex_separator(g.induced(six), x, y)
                        == min_vertex_separator(whole, x, y)), (comp, i)
                starts += 1
    assert starts >= 300


def test_free_runs_match_a_rescan():
    """The run lengths rule 13's windows and the audit's run bound read,
    against a walk back from every clique, on unit-interval strips with
    one to three base vertices tied to random stretches; some path's
    longest run passes the 14k+5 = 19 window of k = 1."""
    rng = random.Random(34)
    longest = []
    for _ in range(30):
        n = rng.randint(40, 300)
        g = unit_interval_graph(rng, n, n / rng.uniform(4.0, 8.0))
        strip_vs = sorted(g.vertices)
        s = []
        for _ in range(rng.randint(1, 3)):
            x = g.add_vertex()
            a = rng.randrange(n)
            for u in strip_vs[a:a + rng.randint(1, 6)]:
                g.add_edge(x, u)
            s.append(x)
        mod = classify_tree_side(g, s)
        got = list(R.free_runs(g, mod))
        assert got == free_runs_by_rescan(g, mod)
        longest += [max(runs) for _, runs in got]
    assert max(longest) > 19, sorted(longest)


def test_rule13_ignores_short_runs():
    g = strip(45)   # 15 blocks: shorter than the 14k+5 = 19 window
    g.ensure_vertex(0)
    g.add_edge(0, 1)
    g.add_edge(0, 45)
    mod = classify_tree_side(g, [0])
    assert R.rule13_bypass_clique(g, 1, mod) is None


def test_rule14_drops_exactly_the_unmarked():
    g = MultiGraph.from_edges([(u, v) for u in range(1, 31)
                               for v in range(u + 1, 31)])
    g.ensure_vertex(0)
    for v in range(1, 31, 2):
        g.add_edge(0, v)
    mod = classify_tree_side(g, [0])
    v1 = sorted(cyclic_side(mod))
    path = clique_path(g.induced(v1), v1)
    want = unmarked_vertices(g, 0, {0}, path)
    assert want
    app = R.rule14_delete_unmarked(g, 0, mod)
    assert app.ops == tuple(("del", v) for v in want)


# ---------------------------------------------------------------------------
# oracle-checked safety walks over the raw-graph rules
# ---------------------------------------------------------------------------

def first_raw_rule(g, k):
    for _rule_id, needs_mod, fn in R.RULES:
        if needs_mod:
            return None
        app = fn(g, k)
        if app is not None:
            return app
    return None


@pytest.mark.parametrize("seed", range(30))
def test_raw_rules_preserve_the_answer(seed):
    rng = random.Random(7100 + seed)
    g = random_multigraph(rng, rng.randint(5, 9),
                          rng.choice([0.2, 0.35, 0.5]), double_frac=0.15)
    k = rng.randint(0, 3)
    want = decide(g, k) is not None
    h, kk = g.copy(), k
    for _ in range(100):
        app = first_raw_rule(h, kk)
        if app is None:
            break
        R.apply_ops(h, app.ops)
        kk += app.k_delta
        if kk < 0:
            assert not want, (seed, app.rule)
            return
        assert (decide(h, kk) is not None) == want, (seed, app.rule)
    else:
        pytest.fail("raw rules failed to reach a fixpoint")


@pytest.mark.parametrize("seed", range(8))
def test_cycle_shrinking_preserves_holes(seed):
    rng = random.Random(7200 + seed)
    n = rng.randint(5, 12)
    g = MultiGraph.from_edges([(i, (i + 1) % n) for i in range(n)])
    app = R.rule5_shrink_degree2_path(g, 1)
    h = apply(g, app)
    assert h.n == 4
    assert not is_pitg(h)[0]   # still one hole, still one deletion needed
