"""Deliberately broken rule variants for sensitivity testing.

Each entry here mirrors one reduction rule with a single planted bug of
the kind a refactor could plausibly introduce: a dropped guard, an
off-by-one in a slice, a forgotten op, the wrong vertex picked from a
pair, a constant misread.  Swapping a mutant into the battery must make
the verification suite fail on some instance; a mutant nobody can catch
means the tests are blind to that rule's contract.

Mutants 2, 3, 4, 5 and 8 call their rule and plant the bug in its input
or its output: rule 2's cap written as one, rule 3 run at budget
max(1, k) - 1, rule 4's deletion widened to the whole tail, rule 5's
closing edge dropped, rule 8 run with every hook counted bad.  A change
to one of those rules therefore reaches its mutant too.  Mutants 6, 12
and 13 change a trigger or an edit that the rule's output cannot
express, so they share the rule's scan or edit instead and keep only
the change: mutant 6 walks rule 6's ``branching_trees`` but keeps only
the branch path, mutant 12 reads rule 12's ``clique_hits`` at a
threshold of two, and mutant 13 doubles the joins of rule 13's
``bypass``.  Mutants 1, 7, 9, 10 and 11 restate their rule with the
change in place, and mutant 14 never fires.

The mutants for the structural rules fire on much smaller triggers than
their hosts, otherwise they would never execute on test-sized graphs and
the swap would be vacuous.  An eager trigger is itself one of the planted
bugs (a misread threshold), so this keeps each variant honest.
"""

from __future__ import annotations

from dataclasses import replace

from .modulator import Modulator
from .multigraph import MultiGraph
from .rules import (RULES, RuleApplication, branch_path, branching_trees,
                    bypass, clique_hits, deletion, rule2_cap_multiplicity,
                    rule3_many_double_edges, rule4_trim_tail,
                    rule5_shrink_degree2_path, rule8_remove_bad_hangers)


def mutant1_drop_any_component(g: MultiGraph, k: int):
    """Deletes the first component without checking that it is clean."""
    for comp in g.components():
        return deletion("1", comp)
    return None


def mutant2_cap_to_one(g: MultiGraph, k: int):
    """Rule 2, capping oversized multiplicities to one instead of two."""
    app = rule2_cap_multiplicity(g, k)
    return app and replace(app, ops=(("mult", *app.affected, 1),))


def mutant3_low_threshold(g: MultiGraph, k: int):
    """Rule 3, firing at max(1, k) doubled neighbors instead of k + 1."""
    return rule3_many_double_edges(g, max(1, k) - 1)


def mutant4_cut_tail_too_short(g: MultiGraph, k: int):
    """Rule 4, slicing the tail off entirely instead of keeping its first
    vertex: every tail vertex but the anchor (the one of degree > 2) goes."""
    app = rule4_trim_tail(g, k)
    return app and deletion("4", [v for v in app.affected if g.degree(v) <= 2],
                            affected=app.affected)


def mutant5_forget_reconnect(g: MultiGraph, k: int):
    """Rule 5, shrinking the path but forgetting the edge that closes the
    gap (its last op)."""
    app = rule5_shrink_degree2_path(g, k)
    return app and replace(app, ops=app.ops[:-1])


def mutant6_bare_path(g: MultiGraph, k: int):
    """Rule 6, keeping only the path to the branch vertex and losing its
    two children."""
    for x, piece in branching_trees(g):
        keep = set(branch_path(g, x, piece))
        drop = [u for u in piece if u not in keep]
        if drop:
            return deletion("6", drop, affected=[x] + sorted(piece))
    return None


def mutant7_keep_one_tree(g: MultiGraph, k: int):
    """Trims to a single pendant tree and already fires at two."""
    for x, trees in g.pendant_trees().items():
        if len(trees) >= 2:
            drop = [u for t in trees[1:] for u in t]
            return deletion("7", drop, affected=[x] + drop)
    return None


def mutant8_strip_all_hooks(g: MultiGraph, k: int, mod: Modulator):
    """Rule 8, deleting the hangers of every hook, good ones included."""
    return rule8_remove_bad_hangers(g, k, replace(mod, bad_hooks=mod.hooks))


def mutant9_delete_cover_vertex(g: MultiGraph, k: int, mod: Modulator):
    """Deletes a vertex of the cycle cover instead of the hub, and does so
    for any nonempty flower."""
    for fl in mod.flowers.values():
        if fl.order >= 1 and fl.cover:
            return deletion("9", [min(fl.cover)], k_delta=-1)
    return None


def mutant10_cut_two_contacts(g: MultiGraph, k: int, mod: Modulator):
    """Severs the first two tree-side contacts of any base vertex that has
    two, skipping the expansion entirely."""
    for v in sorted(mod.s):
        ws = [u for u in g.neighbors(v) if u in mod.v2]
        if len(ws) >= 2:
            ops = (("mult", v, ws[0], 0), ("mult", v, ws[1], 0))
            return RuleApplication(rule="10", ops=ops,
                                   affected=(v, ws[0], ws[1]))
    return None


def mutant11_delete_wrong_side(g: MultiGraph, k: int, mod: Modulator):
    """Charges the budget for a vertex of the cyclic side rather than the
    expansion's base-set side."""
    if mod.v1 and mod.s:
        return deletion("11", [min(mod.v1)], k_delta=-1)
    return None


def mutant12_delete_clique_vertex(g: MultiGraph, k: int, mod: Modulator):
    """Rule 12, firing at two touched cliques and deleting from the clique
    instead of deleting the base vertex."""
    for _, path, hits in clique_hits(g, mod):
        if hits >= 2:
            return deletion("12", [min(path.cliques[0])], k_delta=-1)
    return None


def mutant13_doubled_joins(g: MultiGraph, k: int, mod: Modulator):
    """Rule 13's edit on the middle clique of any three-clique run, without
    the separator check, joining the flanks with doubled edges."""
    for path in mod.paths:
        if len(path.cliques) >= 3:
            app = bypass(g, path, len(path.cliques) // 2)
            return replace(app, ops=tuple(
                op[:3] + (2,) if op[0] == "edge" else op for op in app.ops))
    return None


def mutant14_everything_marked(g: MultiGraph, k: int, mod: Modulator):
    """Believes the marking scan marked every vertex, so it never fires."""
    return None


MUTANTS = {
    "1": mutant1_drop_any_component,
    "2": mutant2_cap_to_one,
    "3": mutant3_low_threshold,
    "4": mutant4_cut_tail_too_short,
    "5": mutant5_forget_reconnect,
    "6": mutant6_bare_path,
    "7": mutant7_keep_one_tree,
    "8": mutant8_strip_all_hooks,
    "9": mutant9_delete_cover_vertex,
    "10": mutant10_cut_two_contacts,
    "11": mutant11_delete_wrong_side,
    "12": mutant12_delete_clique_vertex,
    "13": mutant13_doubled_joins,
    "14": mutant14_everything_marked,
}


def mutated_rules(rule_id: str) -> tuple:
    """The full battery with one rule swapped for its broken variant."""
    if rule_id not in MUTANTS:
        raise ValueError(f"no mutant for rule {rule_id!r}")
    swapped = MUTANTS[rule_id]
    return tuple((rid, needs_mod, swapped if rid == rule_id else fn)
                 for rid, needs_mod, fn in RULES)


def _cycle(vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def killer_instances() -> list[tuple[str, MultiGraph, int]]:
    """Small structured instances on which the planted bugs change behavior.

    Random graphs at test sizes rarely reach the structural rules, so the
    sensitivity check runs these first: each is built so that one mutant
    either flips the decision or leaves work the real battery would have
    finished.  They run through every mutant (and the real battery), not
    just their namesake.
    """
    graph = MultiGraph.from_edges
    out = []
    out.append(("two-dirty-components",
                graph(_cycle([1, 2, 3, 4, 5]) + _cycle([6, 7, 8])), 0))
    out.append(("triple-edge", graph([(1, 2, 3)]), 0))
    out.append(("double-plus-hole",
                graph([(1, 2, 2)] + _cycle([2, 3, 4, 5])), 1))
    out.append(("net-with-long-leg",
                graph(_cycle([1, 2, 3]) +
                      [(1, 4), (2, 5), (3, 6), (6, 7)]), 0))
    out.append(("seven-cycle", graph(_cycle([1, 2, 3, 4, 5, 6, 7])), 0))
    out.append(("branched-pendant-tree",
                graph(_cycle([1, 2, 3]) +
                      [(1, 4), (4, 5), (5, 6), (5, 7), (5, 8)]), 0))
    out.append(("two-pendant-paths",
                graph(_cycle([1, 2, 3]) + [(1, 4), (1, 5)]), 0))
    out.append(("cycle-with-hanger",
                graph([(i, i + 1) for i in range(1, 9)] +
                      [(0, 1), (0, 9), (5, 10)]), 1))
    out.append(("three-triangles-one-hub",
                graph(_cycle([0, 1, 2]) + _cycle([0, 3, 4]) +
                      _cycle([0, 5, 6])), 1))
    out.append(("shared-fan",
                graph([(0, i) for i in range(2, 21)] +
                      [(1, i) for i in range(2, 21)]), 1))
    out.append(("four-triangles-one-hub",
                graph(_cycle([1, 2, 3]) + _cycle([4, 5, 6]) +
                      _cycle([7, 8, 9]) + _cycle([10, 11, 12]) +
                      [(0, 1), (0, 4), (0, 7), (0, 10)]), 1))
    out.append(("two-blocks-on-a-hub",
                graph(_cycle([0, 1, 2]) + _cycle([0, 3, 4]) +
                      _cycle([0, 5, 6]) + _cycle([7, 8, 9]) +
                      [(9, 10), (0, 7), (0, 9), (0, 10)]), 1))
    strip = [(i, i + 1) for i in range(1, 9)] + [(i, i + 2) for i in range(1, 8)]
    out.append(("clique-path-plus-cycle",
                graph(strip + _cycle([20, 21, 22, 23]) + [(20, 1)]), 1))
    big = [(u, v) for u in range(1, 81) for v in range(u + 1, 81)]
    big += [(0, v) for v in range(1, 81, 2)]
    big += [(0, 81, 2)]
    out.append(("marked-clique", graph(big), 1))
    return out
