"""The irreducibility audit reads the rule battery as the driver does:
every raw rule that still fires, else the first base-set rule that
does."""

import pytest

from pitvd import rules
from pitvd.audit import audit_violations
from pitvd.multigraph import MultiGraph
from pitvd.mutation import killer_instances
from pitvd.rules import RULES

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
