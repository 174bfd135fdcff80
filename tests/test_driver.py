"""Driver behavior: fixpoints, traces, replay, and answer preservation."""

import random

import pytest

from pitvd import driver
from pitvd.audit import audit_violations
from pitvd.driver import kernelize, replay
from pitvd.exact import decide
from pitvd.multigraph import MultiGraph
from pitvd.rules import RULES, RuleApplication

from conftest import (planted_interval_graph, planted_tree_graph,
                      random_multigraph, unit_interval_graph)


def same_graph(a: MultiGraph, b: MultiGraph) -> bool:
    return a.vertices == b.vertices and list(a.edges()) == list(b.edges())


def no_rule_applies(res) -> bool:
    from pitvd.modulator import compute_base_set, classify_tree_side
    g, k = res.graph, res.k
    mod = None
    for _rule_id, needs_mod, fn in RULES:
        if needs_mod:
            if mod is None:
                s, _ = compute_base_set(g, k)
                if s is None:
                    return False
                mod = classify_tree_side(g, s)
            app = fn(g, k, mod)
        else:
            app = fn(g, k)
        if app is not None:
            return False
    return True


def test_clean_input_vanishes():
    rng = random.Random(41)
    g = unit_interval_graph(rng, 9, 3.0)
    tree = MultiGraph.from_edges([(20, 21), (21, 22), (21, 23)])
    for v in tree.vertices:
        g.ensure_vertex(v)
    for u, v, m in tree.edges():
        g.add_edge(u, v, m)
    res = kernelize(g, 2)
    assert not res.decided_no
    assert res.graph.n == 0 and res.k == 2
    assert all(app.rule in ("1", "base-set") for app in res.trace)


def test_empty_graph_is_already_a_kernel():
    res = kernelize(MultiGraph(), 0)
    assert not res.decided_no and res.graph.n == 0 and res.k == 0


def test_too_many_disjoint_holes_is_a_no():
    edges = [(i, (i + 1) % 7) for i in range(7)]
    edges += [(10 + i, 10 + (i + 1) % 7) for i in range(7)]
    g = MultiGraph.from_edges(edges)
    res = kernelize(g, 1)
    assert res.decided_no
    assert decide(g, 1) is None


def test_budget_exhaustion_is_a_no():
    g = MultiGraph.from_edges([(0, 1, 2), (2, 3, 2)])
    res = kernelize(g, 1)
    assert res.decided_no
    assert decide(g, 1) is None


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        kernelize(MultiGraph(), -1)


def test_marking_rule_reached_through_the_driver():
    g = MultiGraph.from_edges([(u, v) for u in range(1, 81)
                               for v in range(u + 1, 81)])
    g.ensure_vertex(0)
    g.ensure_vertex(81)
    for v in range(1, 81, 2):
        g.add_edge(0, v)
    g.add_edge(0, 81, 2)
    res = kernelize(g, 1)
    assert not res.decided_no
    assert any(app.rule == "14" for app in res.trace)
    assert res.graph.n < g.n // 2
    assert no_rule_applies(res)
    assert (decide(g, 1) is None) == (decide(res.graph, res.k) is None)


def test_bypass_rule_reached_through_the_driver():
    n = 66
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(i, i + 2) for i in range(1, n - 1)]
    edges += [(0, 1), (0, n)]
    g = MultiGraph.from_edges(edges)
    res = kernelize(g, 1)
    assert any(app.rule == "13" for app in res.trace)
    assert not res.decided_no
    assert no_rule_applies(res)
    assert decide(res.graph, res.k) is not None   # dropping the hub still works


@pytest.mark.parametrize("seed", range(40))
def test_kernel_keeps_the_answer(seed):
    rng = random.Random(8300 + seed)
    g = random_multigraph(rng, rng.randint(4, 10),
                          rng.choice([0.2, 0.35, 0.5]), double_frac=0.1)
    k = rng.randint(0, 3)
    res = kernelize(g, k)
    if res.decided_no:
        assert decide(g, k) is None, seed
    else:
        assert (decide(g, k) is None) == (decide(res.graph, res.k) is None), seed
        assert no_rule_applies(res), seed


@pytest.mark.parametrize("seed", range(15))
def test_traces_replay_and_runs_are_deterministic(seed):
    rng = random.Random(8400 + seed)
    g = random_multigraph(rng, rng.randint(4, 10), 0.35, double_frac=0.1)
    k = rng.randint(0, 3)
    res = kernelize(g, k)
    again = kernelize(g, k)
    assert res.trace == again.trace and res.k == again.k
    h, kk = replay(g, k, res.trace)
    assert same_graph(h, res.graph) and kk == res.k


def _eight_cycle_closed_up():
    """An 8-hole (base set {0}) and a rule that deletes 0 once and closes
    the leftover path into a 7-hole, so the pruned base set breaks."""
    g = MultiGraph.from_edges([(i, (i + 1) % 8) for i in range(8)])

    def close_up(g, k, mod):
        if not g.has_vertex(0):
            return None
        return RuleApplication(rule="x", ops=(("del", 0), ("edge", 1, 7, 1)))

    return g, (("x", True, close_up),)


@pytest.mark.parametrize("shape,size", [("tree", 50), ("tree", 100),
                                        ("tree", 150), ("interval", 60),
                                        ("interval", 100)])
def test_planted_yes_instances_at_scale(shape, size):
    """The benchmark's planted shapes grown to n of about 80-310: trees of
    50-150 vertices, unit-interval bodies of 60 and 100.  Deleting the
    planted vertices solves each, so none is decided no, and each trace
    replays to a kernel that audits clean."""
    rng = random.Random(f"yes-at-scale/{shape}/{size}")
    for _ in range(5):
        if shape == "tree":
            g, k = planted_tree_graph(rng, tree_size=size)
        else:
            g, k = planted_interval_graph(rng, body_size=size)
        res = kernelize(g, k)
        assert not res.decided_no
        kernel, kk = replay(g, k, res.trace)
        assert same_graph(kernel, res.graph) and kk == res.k
        assert audit_violations(res.graph, res.k) == []


def test_broken_base_set_is_recomputed():
    g, battery = _eight_cycle_closed_up()
    res = kernelize(g, 1, rules=battery)
    assert [(app.rule, app.affected) for app in res.trace] == [
        ("base-set", (0,)), ("x", ()), ("base-set", (1,))]


def test_unclean_fresh_base_set_raises(monkeypatch):
    g, battery = _eight_cycle_closed_up()
    monkeypatch.setattr(driver, "compute_base_set",
                        lambda g, k, node_limit: (set(), False))
    with pytest.raises(ValueError):
        kernelize(g, 1, rules=battery)


def test_trace_records_budget_spending_rules():
    g = MultiGraph.from_edges([(0, 1, 2), (0, 2, 2), (1, 2)])
    res = kernelize(g, 1)
    assert [app.rule for app in res.trace][:1] == ["3"]
    assert not res.decided_no
    assert res.k == 0 and res.graph.n == 0


class WalkCountingDict(dict):
    """An adjacency map that counts the keys read by walks over all of
    it."""

    walked = 0

    def __iter__(self):
        WalkCountingDict.walked += len(self)
        return super().__iter__()

    def keys(self):
        WalkCountingDict.walked += len(self)
        return super().keys()

    def values(self):
        WalkCountingDict.walked += len(self)
        return super().values()

    def items(self):
        WalkCountingDict.walked += len(self)
        return super().items()


class CountedAdjacency:
    """Stands in for the ``MultiGraph._adj`` slot and stores every
    adjacency map a graph is given as a ``WalkCountingDict``."""

    def __init__(self, slot):
        self.slot = slot

    def __get__(self, g, owner=None):
        return self if g is None else self.slot.__get__(g, owner)

    def __set__(self, g, adj):
        self.slot.__set__(g, WalkCountingDict(adj))


def fixpoint_work(monkeypatch, g: MultiGraph, k: int) -> dict[str, int]:
    """Kernelize (g, k) and count rule 1's recognitions, the items
    ``MultiGraph.edges`` yields, the vertices read by full walks over
    an adjacency map (of every graph the run builds), and the
    compactions and component sweeps made inside ``compute_base_set``."""
    from pitvd import backend, recognition, rules

    counts = {"component_clean": 0, "edges": 0, "base_set_compact": 0,
              "base_set_comp_masks": 0}
    clean, edges = recognition.component_clean, MultiGraph.edges
    base_set, compact = driver.compute_base_set, MultiGraph.compact
    comp_masks = backend.comp_masks
    inside = []

    def counted_base_set(*args):
        inside.append(True)
        try:
            return base_set(*args)
        finally:
            inside.pop()

    def counted_compact(self, *args):
        counts["base_set_compact"] += bool(inside)
        return compact(self, *args)

    def counted_comp_masks(*args):
        counts["base_set_comp_masks"] += bool(inside)
        return comp_masks(*args)

    monkeypatch.setattr(driver, "compute_base_set", counted_base_set)
    monkeypatch.setattr(MultiGraph, "compact", counted_compact)
    monkeypatch.setattr(backend, "comp_masks", counted_comp_masks)

    def counted_clean(*args):
        counts["component_clean"] += 1
        return clean(*args)

    def counted_edges(self):
        for e in edges(self):
            counts["edges"] += 1
            yield e

    monkeypatch.setattr(recognition, "component_clean", counted_clean)
    monkeypatch.setattr(rules, "component_clean", counted_clean)
    monkeypatch.setattr(MultiGraph, "edges", counted_edges)
    monkeypatch.setattr(MultiGraph, "_adj",
                        CountedAdjacency(vars(MultiGraph)["_adj"]))
    WalkCountingDict.walked = 0
    kernelize(g, k)
    counts["walked"] = WalkCountingDict.walked
    monkeypatch.undo()
    return counts


def isolated_vertices(n: int) -> tuple[MultiGraph, int]:
    return MultiGraph.from_edges([], vertices=range(n)), 1


def doubled_matching(n: int) -> tuple[MultiGraph, int]:
    """n/2 disjoint edges of multiplicity 3: rule 2 fires n/2 times, and
    the n/2 doubled edges left are more than k = 2 deletions can break."""
    return MultiGraph.from_edges([(2 * i, 2 * i + 1, 3)
                                  for i in range(n // 2)]), 2


@pytest.mark.parametrize("family", [isolated_vertices, doubled_matching])
def test_fixpoint_work_grows_linearly(monkeypatch, family):
    """Each firing restarts the battery at rule 1, so a fixpoint that
    rescanned the graph per firing would do quadratic work on these
    families; doubling n may at most about double each count."""
    small, large = (fixpoint_work(monkeypatch, *family(n))
                    for n in (500, 1000))
    assert small["component_clean"] >= 250
    for name, count in small.items():
        assert large[name] <= 2.2 * count, (name, small, large)
    if family is doubled_matching:
        # rule 1 judged all n/2 components, more than k: the search says
        # no without compacting the graph or sweeping its components
        for counts in (small, large):
            assert counts["base_set_compact"] == 0, counts
            assert counts["base_set_comp_masks"] == 0, counts
