"""Deliberately broken rule variants for sensitivity testing.

Each entry here mirrors one reduction rule with a single planted bug of
the kind a refactor could plausibly introduce: a dropped guard, an
off-by-one in a slice, a forgotten op, the wrong vertex picked from a
pair, a constant misread.  Swapping a mutant into the battery must make
the verification suite fail on some instance; a mutant nobody can catch
means the tests are blind to that rule's contract.

The mutants for the structural rules fire on much smaller triggers than
their hosts, otherwise they would never execute on test-sized graphs and
the swap would be vacuous.  An eager trigger is itself one of the planted
bugs (a misread threshold), so this keeps each variant honest.
"""

from __future__ import annotations

from .cliques import attachment
from .modulator import Modulator
from .multigraph import MultiGraph
from .rules import RULES, RuleApplication, branch_path, deletion


def mutant1_drop_any_component(g: MultiGraph, k: int):
    """Deletes the first component without checking that it is clean."""
    for comp in g.components():
        return deletion("1", comp)
    return None


def mutant2_cap_to_one(g: MultiGraph, k: int):
    """Caps oversized multiplicities to one instead of two."""
    e = g.least_heavy_edge()
    if e is None:
        return None
    return RuleApplication(rule="2", ops=(("mult", *e, 1),), affected=e)


def mutant3_low_threshold(g: MultiGraph, k: int):
    """Fires at max(1, k) doubled neighbors instead of k + 1."""
    v = g.least_doubled_hub(max(1, k))
    return None if v is None else deletion("3", [v], k_delta=-1)


def mutant4_cut_tail_too_short(g: MultiGraph, k: int):
    """Slices the tail off entirely instead of keeping its first vertex."""
    for p in g.find_degree2_paths():
        if p.kind == "tail" and len(p.vertices) >= 3:
            return deletion("4", p.vertices[1:], affected=p.vertices)
    return None


def mutant5_forget_reconnect(g: MultiGraph, k: int):
    """Shrinks the path but forgets the edge that closes the gap."""
    for p in g.find_degree2_paths():
        if p.kind == "tail" or len(p.vertices) < 5:
            continue
        vs = p.vertices
        ops = tuple(("del", v) for v in vs[2:-2])
        return RuleApplication(rule="5", ops=ops, affected=vs)
    return None


def mutant6_bare_path(g: MultiGraph, k: int):
    """Keeps only the path to the branch vertex, losing its two children."""
    for x, trees in g.pendant_trees().items():
        for piece in trees:
            if all(g.degree(v) < 3 for v in piece):
                continue
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
    """Deletes the hangers of every hook, good ones included."""
    drop = sorted({u for w in mod.hooks
                   for c in mod.hangers.get(w, ()) for u in c})
    if not drop:
        return None
    return deletion("8", drop, affected=sorted(mod.hooks) + drop)


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
    """Fires at two touched cliques and deletes from the clique instead of
    deleting the base vertex."""
    for v in sorted(mod.s):
        nbr = set(g.neighbors(v))
        for path in mod.paths:
            hit = sum(1 for kq in path.cliques if nbr.intersection(kq))
            if hit >= 2:
                return deletion("12", [min(path.cliques[0])], k_delta=-1)
    return None


def mutant13_doubled_joins(g: MultiGraph, k: int, mod: Modulator):
    """Bypasses the middle clique of any three-clique run, without the
    separator check, and joins the flanks with doubled edges."""
    for path in mod.paths:
        if len(path.cliques) < 3:
            continue
        ell = len(path.cliques) // 2
        mid = path.cliques[ell]
        flank_a = attachment(g, path.cliques[ell - 1], mid)
        flank_b = attachment(g, path.cliques[ell + 1], mid)
        ops = [("del", v) for v in sorted(mid)]
        ops += [("edge", a, b, 2) for a in flank_a for b in flank_b]
        return RuleApplication(rule="13", ops=tuple(ops),
                               affected=tuple(sorted(mid)))
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
