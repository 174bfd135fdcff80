"""Irreducibility audit of a fixpoint kernel.

A kernel is irreducible when no reduction rule applies to it, so the
rule battery itself is the check: a rule that still fires is reported
as ``rule N still applies``.  The audit reads the battery as the driver
does.  Every rule that needs no base set is tried, and each one that
fires is reported, so a kernel the exact search rejects still gets
them; if any fires, the audit stops there, since the base-set rules
assume those are exhausted.  Otherwise the base-set rules run in order,
against a base set and strata recomputed from scratch, and only the
first one that fires is reported: each later rule assumes the earlier
ones no longer apply.

Next to the rules, the audit checks the size bounds that no rule states
as a trigger: branching pendant trees of at most five vertices,
marked-size cliques, bounded base-set-free clique runs, and the stratum
cardinality bounds.  Every finding is a human-readable violation string;
an irreducible kernel reports none.
"""

from __future__ import annotations

from . import marking
from .exact import DEFAULT_NODE_LIMIT
from .modulator import classify_tree_side, compute_base_set
from .multigraph import MultiGraph
from .rules import RULES


def audit_violations(g: MultiGraph, k: int,
                     node_limit: int = DEFAULT_NODE_LIMIT) -> list[str]:
    """All irreducibility violations of (g, k); empty means the kernel is
    irreducible.  The audit reads a copy of g, so it neither trusts the
    verdicts g carries nor leaves any of its own in g.  On the copy, the
    pendant-tree bound reads the map that rules 6 and 7 just built, and
    the base set's search starts from the verdicts of rule 1's scan."""
    g = g.copy()
    bad = [f"rule {rule_id} still applies" for rule_id, needs_mod, fn in RULES
           if not needs_mod and fn(g, k) is not None]
    if bad:
        return bad

    for x, trees in g.pendant_trees().items():
        for piece in trees:
            if any(g.degree(v) >= 3 for v in piece) and len(piece) > 5:
                bad.append(f"branching pendant tree at {x} keeps "
                           f"{len(piece)} > 5 vertices")

    if g.n == 0:
        return bad

    s, _ = compute_base_set(g, k, node_limit)
    if s is None:
        bad.append("no base set: the exact search rejects the kernel")
        return bad
    mod = classify_tree_side(g, s)

    cap = marking.eta(k, len(mod.s))
    ns = {u for x in mod.s for u in g.neighbors(x)}
    for path in mod.paths:
        for kq in path.cliques:
            if len(kq) > cap:
                bad.append(f"clique of size {len(kq)} exceeds eta = {cap}")
        run = best = 0
        for kq in path.cliques:
            run = run + 1 if not ns.intersection(kq) else 0
            best = max(best, run)
        if best > 14 * k + 5:
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
