"""The irreducibility audit reads the rule battery as the driver does:
every raw rule that still fires, else the first base-set rule that
does."""

from itertools import combinations

import random

import pytest
from conftest import planted_interval_graph, planted_tree_graph
from mutants import MUTANTS, killer_instances, mutated_rules

from pitvd import audit, rules
from pitvd.audit import audit_violations
from pitvd.cli import _check_one, random_instance
from pitvd.driver import kernelize
from pitvd.exact import decide
from pitvd.modulator import base_set_cap
from pitvd.multigraph import MultiGraph
from pitvd.rules import RULES, RuleApplication

KILLERS = killer_instances()


@pytest.mark.parametrize("name,g,k", KILLERS, ids=[n for n, _, _ in KILLERS])
def test_audit_names_every_firing_raw_rule(name, g, k):
    found = audit_violations(g, k)
    missed = [rule_id for rule_id, needs_mod, fn in RULES
              if not needs_mod and fn(g, k) is not None
              and f"rule {rule_id} still applies" not in found]
    assert not missed, found


def test_audit_stops_at_the_raw_rules_that_still_apply():
    """A spider beside a triangle with a pendant path and a hanging claw:
    rules 1, 4 and 6 still apply, and the base-set rules, which assume
    them exhausted, are not run (rule 11 would meet a clean cyclic
    component)."""
    g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6),
                               (10, 11), (11, 12), (10, 12), (10, 13),
                               (13, 14), (12, 20), (20, 21), (20, 22),
                               (20, 23)])
    assert audit_violations(g, 0) == ["rule 1 still applies",
                                      "rule 4 still applies",
                                      "rule 6 still applies"]


def test_audit_reports_only_the_first_base_set_rule():
    """Seven triangles on one hub with k = 1: rule 9 applies, and rule 10,
    which assumes rule 9 exhausted, is not run."""
    g = MultiGraph.from_edges([e for i in range(7)
                               for e in ((0, 2 * i + 1), (0, 2 * i + 2),
                                         (2 * i + 1, 2 * i + 2))])
    assert audit_violations(g, 1) == ["rule 9 still applies"]


def test_audit_judges_every_component_and_leaves_the_graph(monkeypatch):
    """Three disjoint 4-holes that rule 1 has already judged not clean:
    the audit checks all three again instead of trusting those verdicts,
    leaves the graph as it was, and leaves its verdicts standing."""
    g = MultiGraph.from_edges([(b + i, b + (i + 1) % 4)
                               for b in (0, 10, 20) for i in range(4)])
    assert rules.rule1_drop_clean_component(g, 1) is None
    before = g.copy()
    calls = []
    orig = rules.component_clean

    def counted(h, comp):
        calls.append(comp)
        return orig(h, comp)

    monkeypatch.setattr(rules, "component_clean", counted)
    audit_violations(g, 1)
    assert len(calls) == 3
    assert g == before
    calls.clear()
    assert rules.rule1_drop_clean_component(g, 1) is None
    assert calls == []


HOLE = [(0, 1), (1, 2), (2, 3), (3, 0)]


def clique(n):
    return list(combinations(range(n), 2))


def strip(n):
    """i ~ i+1 and i ~ i+2: a path of n / 3 cliques of three."""
    return [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]


def hole_with_path(n):
    return HOLE + [(0, 4)] + [(i, i + 1) for i in range(4, 3 + n)]


def hole_with_leaves(n):
    return HOLE + [(h, 10 + h + 4 * i) for h in range(4) for i in range(n)]


def hole_beside_edge(_):
    return HOLE + [(10, 11)]


def triangle_with_tree(n):
    """A triangle carrying a branching tree of n vertices at vertex 0."""
    tree = [(0, 10), (10, 11), (10, 12), (10, 13), (11, 14), (12, 15), (13, 16)]
    return [(0, 1), (1, 2), (0, 2)] + tree[:n]


SIZE_BOUNDS = [
    (clique, 0, 6, []),
    (clique, 0, 7, ["clique of size 7 exceeds eta = 6"]),
    (strip, 0, 15, []),
    (strip, 0, 18, ["base-set-free clique run of length 6 > 14k+5 = 5"]),
    (hole_beside_edge, 1, 0,
     ["tree side nonempty but none of it touches the base set"]),
    (hole_with_path, 1, 55, []),
    (hole_with_path, 1, 56, ["tree side has 56 vertices > 108|F1|-53 = 55"]),
    (hole_with_leaves, 1, 116, []),
    (hole_with_leaves, 1, 117, ["|F1| = 468 exceeds 464"]),
    (triangle_with_tree, 1, 5, []),
    (triangle_with_tree, 1, 6, ["branching pendant tree at 0 keeps 6 > 5 vertices"]),
]


@pytest.mark.parametrize("build,k,size,found", SIZE_BOUNDS,
                         ids=[f"{b.__name__}-{n}" for b, _, n, _ in SIZE_BOUNDS])
def test_audit_checks_each_size_bound_at_its_edge(monkeypatch, build, k, size, found):
    """The size bounds that no rule states, each on a graph at the bound
    and on one just past it.  The full battery shrinks all of these graphs
    before any bound is read, so the audit runs with rules 2 and 3 only;
    the hole's base set is all four of its vertices."""
    monkeypatch.setattr(audit, "RULES", [r for r in RULES if r[0] in ("2", "3")])
    assert audit_violations(MultiGraph.from_edges(build(size)), k) == found


# -- the base set a kernel carries ------------------------------------------

def test_kernels_carry_a_base_set_only_when_their_fixpoint_read_one():
    """Two disjoint 4-holes: at k = 2 the kernel carries the base set its
    fixpoint was checked against.  Decided no (by the bootstrap at k = 1,
    or by a rule that spends the budget without an edit, so the base set
    still describes the graph), fallen back to the greedy base set (node
    limit 1), or cut to a battery without the base-set rules, it carries
    none, and the audit searches afresh."""
    g = MultiGraph.from_edges(HOLE + [(u + 10, v + 10) for u, v in HOLE])
    assert kernelize(g, 2).graph.base_set == frozenset(g.vertices)
    overspend = ("x", True,
                 lambda h, k, mod: RuleApplication("x", (), k_delta=-k - 1))
    decided = kernelize(g, 1)
    overspent = kernelize(g, 2, rules=(overspend,))
    fallen = kernelize(g, 2, node_limit=1)
    prefix = kernelize(g, 2, rules=tuple(r for r in RULES if not r[1]))
    assert decided.decided_no and overspent.decided_no and fallen.fallback
    assert not (prefix.decided_no or prefix.fallback)
    for res in (decided, overspent, fallen, prefix):
        assert res.graph.base_set is None


@pytest.mark.parametrize("s,found", [
    ({3}, "carried base set rejected: "
          "base set leaves the parallel edge (1, 2)"),
    ({1}, "carried base set rejected: "
          "component is not a proper interval graph"),
], ids=["parallel-edge", "unclean-cyclic-component"])
def test_a_carried_base_set_that_leaves_dirt_is_one_violation(s, found):
    """A doubled edge on a 4-hole audits clean from scratch; a recorded
    set that leaves the doubled edge, or the hole, is one violation, and
    the audit does not fall back to a search of its own."""
    g = MultiGraph.from_edges([(1, 2, 2)] + [(u + 2, v + 2) for u, v in HOLE])
    assert audit_violations(g, 1) == []
    g.record_base_set(s)
    assert audit_violations(g, 1) == [found]


def test_a_fresh_base_set_that_leaves_dirt_is_one_violation(monkeypatch):
    """A fresh base set passes the check a carried one does: on the
    doubled edge beside a 4-hole, a search that returns {3} leaves the
    doubled edge, which is one violation."""
    monkeypatch.setattr(audit, "compute_base_set", lambda *args: ({3}, False))
    g = MultiGraph.from_edges([(1, 2, 2)] + [(u + 2, v + 2) for u, v in HOLE])
    assert audit_violations(g, 1) == [
        "fresh base set rejected: base set leaves the parallel edge (1, 2)"]


@pytest.mark.parametrize("extra", [0, 1], ids=["at-the-cap", "past-the-cap"])
def test_a_carried_base_set_past_its_cap_is_one_violation(monkeypatch, extra):
    """Disjoint 4-holes at k = 0, the whole graph recorded as the base
    set: at ``base_set_cap(0)`` vertices the set passes (no rule finds
    anything to do against it), one hole more is one violation, and
    neither reads a fresh base set."""
    monkeypatch.setattr(audit, "compute_base_set", None)
    holes = base_set_cap(0) // 4 + extra
    g = MultiGraph.from_edges([(4 * i + u, 4 * i + v)
                               for i in range(holes) for u, v in HOLE])
    g.record_base_set(g.vertices)
    found = [f"carried base set of {g.n} vertices exceeds its cap "
             f"{base_set_cap(0)}"] if extra else []
    assert audit_violations(g, 0) == found


def _audited_kernels():
    """(name, input, k, battery): the benchmark's planted shapes and a few
    hundred verification-corpus graphs under the full battery, and the
    killer instances under it and under every mutated battery."""
    for seed in range(4):
        yield (f"planted-interval/{seed}",
               *planted_interval_graph(random.Random(seed)), RULES)
        yield (f"planted-tree/{seed}",
               *planted_tree_graph(random.Random(seed)), RULES)
    rng = random.Random(32)
    for i in range(300):
        yield f"random/{i}", *random_instance(rng, 12, 4), RULES
    for rule_id in (None, *MUTANTS):
        battery = RULES if rule_id is None else mutated_rules(rule_id)
        for name, g, k in killer_instances():
            yield f"{name}/mutant-{rule_id}", g, k, battery


def test_a_carried_base_set_audits_as_a_fresh_one(monkeypatch):
    """Every kernel not decided no carries the base set its fixpoint read,
    and that set is the one a fresh ``compute_base_set`` gives: auditing
    the kernel as it comes reads no fresh base set and finds what the
    from-scratch audit of its copy finds, which reads one whenever the
    rules that need no base set are exhausted.

    A broken battery may leave a kernel with no solution within its
    budget.  Only the fresh search reports that ("no base set"); the
    decision check of ``cli`` flags it instead.  On these instances it
    happens only for the mutant of rule 11 on one killer instance."""
    calls = []
    fresh_base_set = audit.compute_base_set

    def spy(*args):
        calls.append(args)
        return fresh_base_set(*args)

    def audited(g, k):
        calls.clear()
        return audit_violations(g, k), len(calls)

    monkeypatch.setattr(audit, "compute_base_set", spy)
    raw = [fn for _, needs_mod, fn in RULES if not needs_mod]
    reached = unsolvable = 0
    for name, g, k, battery in _audited_kernels():
        try:
            res = kernelize(g, k, rules=battery)
        except AssertionError:  # a broken battery may trip internal checks
            assert battery is not RULES, name
            continue
        if res.decided_no:
            continue
        kg, kk = res.graph, res.k
        assert not res.fallback and kg.base_set is not None, name
        reaches = kg.n > 0 and not any(fn(kg.copy(), kk) for fn in raw)
        reached += reaches
        carried, carried_calls = audited(kg, kk)
        fresh, fresh_calls = audited(kg.copy(), kk)
        assert (carried_calls, fresh_calls) == (0, reaches), name
        if decide(kg.copy(), kk) is None:
            unsolvable += 1
            assert battery is not RULES, name
            assert fresh == carried + [
                "no base set: the exact search rejects the kernel"], name
            assert "flipped: input solvable, kernel unsolvable" in _check_one(
                g.copy(), k, battery), name
            continue
        assert kg.base_set == fresh_base_set(kg.copy(), kk)[0], name
        assert carried == fresh, name
    assert reached >= 150 and unsolvable == 1, (reached, unsolvable)
