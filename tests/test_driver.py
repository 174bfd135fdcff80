"""Driver behavior: fixpoints, traces, replay, and answer preservation."""

import random

import pytest

from pitvd import cli, driver, flows
from pitvd.audit import audit_violations
from pitvd.driver import kernelize, replay
from pitvd.exact import decide
from pitvd.multigraph import MultiGraph
from pitvd.rules import RULES, RuleApplication

from conftest import (planted_interval_graph, planted_tree_graph,
                      random_multigraph, random_near_tree, rule1_by_rescan,
                      rule2_by_rescan, rule3_by_rescan, tree_and_cyclic,
                      tree_with_triangles, unit_interval_graph)
from test_trace_hashes import load_corpus


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


def test_greedy_base_set_sets_the_fallback_flag():
    """Past its node limit the exact search hands over to the greedy base
    set: the run on this no-instance comes back as a kernel, not decided,
    and says that its size bound is void.  The kernel still replays from
    the trace."""
    g, k = tree_with_triangles(random.Random(3))
    assert (g.n, k) == (75, 4)
    res = kernelize(g, k, node_limit=2000)
    assert res.fallback and not res.decided_no
    assert replay(g, k, res.trace) == (res.graph, res.k)


def test_exact_base_set_leaves_the_flag_down():
    res = kernelize(*planted_interval_graph(random.Random(0)))
    assert any(app.rule == "base-set" for app in res.trace)
    assert not res.fallback and not res.decided_no


def test_trace_records_budget_spending_rules():
    g = MultiGraph.from_edges([(0, 1, 2), (0, 2, 2), (1, 2)])
    res = kernelize(g, 1)
    assert [app.rule for app in res.trace][:1] == ["3"]
    assert not res.decided_no
    assert res.k == 0 and res.graph.n == 0


def test_pendant_trims_leave_rules_1_to_3_exhausted():
    """After every firing of rule 4, 6, 7 or 8, the rescanning oracles of
    rules 1-3 find nothing on the graph the next rule reads: the lemma
    that lets the driver resume at rule 4 (proof in the ``driver``
    docstring).  Any other firing restarts the battery at rule 1.
    Checked on two seeds of the ``planted-tree`` and ``small-mixed``
    corpora and on three random families; each of the four rules fires
    somewhere."""
    fired: dict[str, int] = {}
    last = []  # the rule that fired last, until the next rule runs

    def checked(rule_id, fn):
        def run(g, k, *mod):
            if last:
                trim = last.pop() in ("4", "6", "7", "8")
                assert rule_id == ("4" if trim else "1")
                if trim:
                    for oracle in (rule1_by_rescan, rule2_by_rescan,
                                   rule3_by_rescan):
                        assert oracle(g, k) is None, oracle.__name__
            app = fn(g, k, *mod)
            if app is not None:
                fired[app.rule] = fired.get(app.rule, 0) + 1
                last.append(app.rule)
            return app
        return run

    battery = tuple((rule_id, needs_mod, checked(rule_id, fn))
                    for rule_id, needs_mod, fn in RULES)
    corpus = load_corpus()
    instances = [cli.parse(inst.text) for seed in (101, 201)
                 for workload in ("planted-tree", "small-mixed")
                 for inst in corpus.build(workload, seed, cli)]
    rng = random.Random(26)
    for n in range(4, 40):
        instances.append((random_near_tree(rng, n), 1 + n % 3))
        instances.append((tree_and_cyclic(rng, n), 1 + n % 3))
    instances += [planted_tree_graph(random.Random(seed), 8 + seed)
                  for seed in range(12)]
    for g, k in instances:
        res = kernelize(g, k, rules=battery)
        # the last firing was checked too, unless it sent k below 0
        assert not last or res.decided_no
        last.clear()
    assert {"1", "4", "6", "7", "8"} <= fired.keys(), fired


def traced_battery(battery, events: list) -> tuple:
    """``battery`` with each rule run logged in ``events`` as its id,
    followed by "!" when it fired."""
    def logged(rule_id, fn):
        def run(g, k, *mod):
            app = fn(g, k, *mod)
            events.append(rule_id + ("!" if app is not None else ""))
            return app
        return run

    return tuple((rule_id, needs_mod, logged(rule_id, fn))
                 for rule_id, needs_mod, fn in battery)


def hooked_holes() -> MultiGraph:
    """Three 8-holes through the hub 0, each 0 p x h h h y q 0 with a
    leaf at each of its three hooks h: the middle hook is bad, and once
    its leaf is gone no degree-2 path has five vertices."""
    edges, nxt = [], 1
    for _ in range(3):
        hole = list(range(nxt, nxt + 7))
        edges += [(0, hole[0]), (0, hole[-1])] + list(zip(hole, hole[1:]))
        edges += [(h, nxt + 7 + i) for i, h in enumerate(hole[2:5])]
        nxt += 10
    return MultiGraph.from_edges(edges)


def hooked_spider() -> MultiGraph:
    """The hub 0 over a spider with three legs f v w to its centre 1, a
    leaf at each f and one at the first leg's v, its only hook."""
    edges, nxt = [], 2
    for leg in range(3):
        f, v, w, leaf = range(nxt, nxt + 4)
        edges += [(0, f), (f, v), (v, w), (w, 1), (f, leaf)]
        nxt += 4
    return MultiGraph.from_edges(edges + [(3, nxt)])


def test_rule8_strata_are_carried_only_after_an_exact_firing(monkeypatch):
    """When rule 8 deletes exactly the hangers of the bad hooks, the pass
    resumes at rule 4 and, rules 4-7 firing nothing, the base-set rules
    read the carried strata without a second classification; they equal
    a fresh one.  Mutant 8 deletes the hangers of a good hook too, so
    the pass after it restarts at rule 1 and classifies afresh."""
    from pitvd.modulator import classify_tree_side
    from mutants import mutated_rules

    events: list[str] = []
    strata = []
    rule9 = next(fn for rule_id, _, fn in RULES if rule_id == "9")

    def classify(g, s):
        events.append("classify")
        return classify_tree_side(g, s)

    def rule9_checked(g, k, mod):
        strata.append((mod, classify_tree_side(g, mod.s)))
        return rule9(g, k, mod)

    monkeypatch.setattr(driver, "classify_tree_side", classify)
    battery = tuple((rule_id, needs_mod, rule9_checked if rule_id == "9"
                     else fn) for rule_id, needs_mod, fn in RULES)
    res = kernelize(hooked_holes(), 1, rules=traced_battery(battery, events))
    assert [app.rule for app in res.trace] == ["base-set", "8"]
    fired = events.index("8!")
    assert events[fired + 1:] == ["4", "5", "6", "7", "8", "9", "10", "11",
                                  "12", "13", "14"]
    (carried, fresh), = strata
    assert carried == fresh and carried.flowers == fresh.flowers

    events.clear()
    res = kernelize(hooked_spider(), 1,
                    rules=traced_battery(mutated_rules("8"), events))
    assert [app.rule for app in res.trace] == ["base-set", "8"]
    fired = events.index("8!")
    assert events[fired + 1:fired + 9] == ["1", "2", "3", "4", "5", "6", "7",
                                           "classify"]


def test_carried_strata_equal_a_fresh_classification():
    """Every strata the driver carries past a rule-8 firing equal
    ``classify_tree_side`` on the graph they are read on, field by field
    and flowers included, over four seeds of the ``planted-tree`` and
    ``small-mixed`` corpora."""
    from pitvd.modulator import classify_tree_side

    since: list[str] = []  # the firings since the last one of rule 8
    compared = 0

    def checked(fn):
        def run(g, k, mod):
            nonlocal compared
            if since == ["8"]:
                fresh = classify_tree_side(g, mod.s)
                assert mod == fresh and mod.flowers == fresh.flowers
                compared += 1
            since.clear()
            app = fn(g, k, mod)
            if app is not None:
                since.append(app.rule)
            return app
        return run

    def reset(fn):
        def run(g, k):
            app = fn(g, k)
            if app is not None:
                since[:] = [app.rule]
            return app
        return run

    battery = tuple((rule_id, needs_mod,
                     checked(fn) if needs_mod else reset(fn))
                    for rule_id, needs_mod, fn in RULES)
    corpus = load_corpus()
    for seed in (101, 201, 202, 203):
        for workload in ("planted-tree", "small-mixed"):
            for inst in corpus.build(workload, seed, cli):
                kernelize(*cli.parse(inst.text), rules=battery)
                since.clear()
    assert compared >= 100, compared


def brush(length: int) -> tuple[MultiGraph, int]:
    """A chordless cycle on 0..L-1, a vertex joined to 0 and 1, and at
    each cycle vertex x a tree x a b with three 2-vertex legs at b: rule
    4 cuts each leg to one vertex and rule 6 then drops one leg of each
    tree, 4L deletions inside the pendant trees."""
    edges = [(x, (x + 1) % length) for x in range(length)]
    edges += [(length, 0), (length, 1)]
    nxt = length + 1
    for x in range(length):
        a, b = nxt, nxt + 1
        edges += [(x, a), (a, b)]
        edges += [e for leg in (nxt + 2, nxt + 4, nxt + 6)
                  for e in ((b, leg), (leg, leg + 1))]
        nxt += 8
    return MultiGraph.from_edges(edges), 1


@pytest.mark.parametrize("length", [125, 250])
def test_pendant_deletions_patch_the_pendant_tree_map(monkeypatch, length):
    """The brush's trims delete vertices of pendant trees only, so the
    pendant-tree map is patched after each one instead of rebuilt: one
    ``kernelize`` strips the whole graph at most twice (a rebuild after
    every trim strips it L + 2 times)."""
    strips = []
    hanging_trees = MultiGraph.hanging_trees

    def counted(self, vs=None, *args, **kwargs):
        strips.append(vs is None)
        return hanging_trees(self, vs, *args, **kwargs)

    monkeypatch.setattr(MultiGraph, "hanging_trees", counted)
    res = kernelize(*brush(length))
    rules = [app.rule for app in res.trace]
    assert rules.count("4") == 3 * length and rules.count("6") == length
    assert sum(strips) <= 2, sum(strips)


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
    an adjacency map (of every graph the run builds), the vertices in
    the trees ``MultiGraph.hanging_trees`` returns, the compactions
    and component sweeps made inside ``compute_base_set``, and the
    whole-graph views built while rule 1 runs."""
    from pitvd import backend, recognition, rules

    counts = {"component_clean": 0, "edges": 0, "hung": 0,
              "base_set_compact": 0, "base_set_comp_masks": 0, "view": 0}
    clean, edges = recognition.component_clean, MultiGraph.edges
    base_set, compact = driver.compute_base_set, MultiGraph.compact
    comp_masks = backend.comp_masks
    inside = []
    rule1_id, rule1_needs_mod, rule1 = RULES[0]
    in_rule1 = []

    def counted_rule1(*args):
        in_rule1.append(True)
        try:
            return rule1(*args)
        finally:
            in_rule1.pop()

    def counted_base_set(*args):
        inside.append(True)
        try:
            return base_set(*args)
        finally:
            inside.pop()

    def counted_compact(self, vs=None):
        counts["base_set_compact"] += bool(inside)
        counts["view"] += vs is None and bool(in_rule1)
        return compact(self, vs)

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

    hanging_trees = MultiGraph.hanging_trees

    def counted_hanging_trees(self, *args, **kwargs):
        hung = hanging_trees(self, *args, **kwargs)
        counts["hung"] += sum(len(t) for ts in hung.values() for t in ts)
        return hung

    monkeypatch.setattr(recognition, "component_clean", counted_clean)
    monkeypatch.setattr(rules, "component_clean", counted_clean)
    monkeypatch.setattr(MultiGraph, "edges", counted_edges)
    monkeypatch.setattr(MultiGraph, "hanging_trees", counted_hanging_trees)
    monkeypatch.setattr(MultiGraph, "_adj",
                        CountedAdjacency(vars(MultiGraph)["_adj"]))
    WalkCountingDict.walked = 0
    kernelize(g, k, rules=((rule1_id, rule1_needs_mod, counted_rule1),)
              + RULES[1:])
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


def caterpillar(n: int) -> tuple[MultiGraph, int]:
    """A triangle with a spine of n/2 - 1 vertices hung from one corner,
    one leaf on each spine vertex: every spine vertex roots a pendant
    tree nested in the one above it."""
    spine = [3 + 2 * i for i in range(n // 2 - 1)]
    edges = [(0, 1), (1, 2), (0, 2), (0, spine[0])]
    edges += [(a, b) for a, b in zip(spine, spine[1:])]
    edges += [(v, v + 1) for v in spine]
    return MultiGraph.from_edges(edges), 1


def comb(n: int) -> tuple[MultiGraph, int]:
    """A triangle with a spine of n/4 vertices hung from one corner, a
    3-vertex tail on each spine vertex: rule 4 fires n/4 times, each
    time on one tail of the same component."""
    spine = [3 + 4 * i for i in range(n // 4)]
    edges = [(0, 1), (1, 2), (0, 2), (0, spine[0])]
    edges += [(a, b) for a, b in zip(spine, spine[1:])]
    edges += [(v + i, v + i + 1) for v in spine for i in range(3)]
    return MultiGraph.from_edges(edges), 1


@pytest.mark.parametrize("family", [isolated_vertices, doubled_matching,
                                    caterpillar, comb])
def test_fixpoint_work_grows_linearly(monkeypatch, family):
    """Each firing restarts the battery, so a fixpoint that rescanned the
    graph per firing would do quadratic work on the first two families
    and on the comb, whose trims would each re-walk every chain and
    re-judge the component, and listing every pendant tree at every
    vertex would on the caterpillar; doubling n may at most about double
    each count.  A trim resumes the battery at rule 4, so rule 1 judges
    the comb a constant number of times."""
    small, large = (fixpoint_work(monkeypatch, *family(n))
                    for n in (500, 1000))
    if family in (isolated_vertices, doubled_matching):
        assert small["component_clean"] >= 250
    if family is comb:
        assert large["component_clean"] <= 3, large
    for name, count in small.items():
        assert large[name] <= 2.2 * count, (name, small, large)
    # rule 1 runs after every edit but a trim, and each edit drops the
    # view; it compacts each component on its own instead
    assert small["view"] == large["view"] == 0
    if family is doubled_matching:
        # rule 1 judged all n/2 components, more than k: the search says
        # no without compacting the graph or sweeping its components
        for counts in (small, large):
            assert counts["base_set_compact"] == 0, counts
            assert counts["base_set_comp_masks"] == 0, counts


def test_rule13_flow_network_does_not_grow_with_the_body(monkeypatch):
    """Rule 13 builds its flow network on six cliques, not on the whole
    component, so on a unit-interval body twice as long the largest
    network it builds is at most 1.2 times as large."""

    def largest_network(body_size: int) -> int:
        sizes = []

        class CountedDinic(flows.Dinic):
            def __init__(self, n: int):
                sizes.append(n)
                super().__init__(n)

        monkeypatch.setattr(flows, "Dinic", CountedDinic)
        res = kernelize(*planted_interval_graph(random.Random(0), body_size))
        monkeypatch.undo()
        assert any(app.rule == "13" for app in res.trace)
        return max(sizes)

    assert largest_network(480) <= 1.2 * largest_network(240)
