"""Irreducibility audit of a fixpoint kernel.

A kernel is irreducible when no reduction rule applies to it, so the
rule battery itself is the check: a rule that still fires is reported
as ``rule N still applies``.  The audit reads the battery as the driver
does.  Every rule that needs no base set is tried, and each one that
fires is reported, so a kernel the exact search rejects still gets
them; if any fires, the audit stops there, since the base-set rules
assume those are exhausted.  Otherwise the base-set rules run in order,
against a base set S and its strata, and only the first one that fires
is reported: each later rule assumes the earlier ones no longer apply.

S is the one the kernel carries (``MultiGraph.base_set``) when it
carries one: the base set the driver's final pass read rules 8-14
against.  The audit checks that certificate instead of searching again
(McConnell, Mehlhorn, Näher and Schweitzer, "Certifying algorithms",
2011).  A graph that carries none (one built by hand or read from a
file, any copy, the kernel of a fallback run or of a battery without
the base-set rules) gets S from a fresh ``compute_base_set`` under the
search's default node budget, the from-scratch check the tests compare
the carried one against.  From there both take one path:
``classify_tree_side`` must accept S, and a rejection is one violation.
A carried S must also stay within ``modulator.base_set_cap(k)``; a fresh
one needs no such check, since the search enforces the cap on an exact
S and a greedy S has none.  A carried S certifies the fixpoint, not the
answer: the fresh search also reports a kernel that has no solution
within k, which with a correct battery the driver has already decided
no, so that check is left to the decision check (``cli`` decides the
kernel of every solvable input it verifies).

Next to the rules, the audit checks the size bounds that no rule states
as a trigger: branching pendant trees of at most five vertices,
marked-size cliques, bounded base-set-free clique runs, and the stratum
cardinality bounds.  The pendant-tree bound is checked on the maximal
branching pendant trees only, the ones rule 6 reads
(``rules.branching_trees``); a tree nested in one is a subtree of it, so
it branches only if the maximal tree does and has no more vertices.  The
run bound reads the run lengths of rule 13's scan (``rules.free_runs``).
Every finding is a human-readable violation string; an irreducible
kernel reports none.
"""

from __future__ import annotations

from . import marking
from .modulator import base_set_cap, classify_tree_side, compute_base_set
from .multigraph import MultiGraph
from .rules import RULES, branching_trees, free_runs


def audit_violations(g: MultiGraph, k: int) -> list[str]:
    """All irreducibility violations of (g, k); empty means the kernel is
    irreducible.  The audit reads a copy of g, so it neither trusts the
    verdicts g carries nor leaves any of its own in g; of what g keeps,
    it reads only the base set g carries, and checks it before the rules
    read it.  A fresh base set, searched for when g carries none, passes
    the same check.  On the copy, the pendant-tree bound reads the map
    that rules 6 and 7 just built, and a base set's search starts from
    the verdicts of rule 1's scan."""
    carried = g.base_set
    g = g.copy()
    bad = [f"rule {rule_id} still applies" for rule_id, needs_mod, fn in RULES
           if not needs_mod and fn(g, k) is not None]
    if bad:
        return bad

    for x, piece in branching_trees(g):
        if len(piece) > 5:
            bad.append(f"branching pendant tree at {x} keeps "
                       f"{len(piece)} > 5 vertices")

    if g.n == 0:
        return bad

    s = carried
    if s is None:
        s, _ = compute_base_set(g, k)
        if s is None:
            bad.append("no base set: the exact search rejects the kernel")
            return bad
    elif len(s) > base_set_cap(k):
        bad.append(f"carried base set of {len(s)} vertices exceeds "
                   f"its cap {base_set_cap(k)}")
        return bad
    try:
        mod = classify_tree_side(g, s)
    except ValueError as exc:
        bad.append(f"{'fresh' if carried is None else 'carried'} "
                   f"base set rejected: {exc}")
        return bad

    cap = marking.eta(k, len(mod.s))
    for path, runs in free_runs(g, mod):
        for kq in path.cliques:
            if len(kq) > cap:
                bad.append(f"clique of size {len(kq)} exceeds eta = {cap}")
        if (best := max(runs)) > 14 * k + 5:
            bad.append(f"base-set-free clique run of length {best} "
                       f"> 14k+5 = {14 * k + 5}")

    if mod.v2 and not mod.f1:
        bad.append("tree side nonempty but none of it touches the base set")
    if mod.f1 and len(mod.v2) > 108 * len(mod.f1) - 53:
        bad.append(f"tree side has {len(mod.v2)} vertices > "
                   f"108|F1|-53 = {108 * len(mod.f1) - 53}")
    f1_cap = len(mod.s) * (7 * (len(mod.s) + 8 * k + 4) + 4)
    if len(mod.f1) > f1_cap:
        bad.append(f"|F1| = {len(mod.f1)} exceeds {f1_cap}")

    for rule_id, needs_mod, fn in RULES:
        if needs_mod and fn(g, k, mod) is not None:
            bad.append(f"rule {rule_id} still applies")
            break
    return bad
