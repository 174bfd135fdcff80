"""The fourteen reduction rules.

Every rule is a pure trigger scan: given the current graph (and, for the
later rules, the modulator strata), it either returns a
:class:`RuleApplication` describing the edit or ``None`` when the rule
does not apply.  The driver owns mutation, ordering and restarts; keeping
the rules side-effect free is what makes traces replayable and the
per-rule safety tests honest.  Rules 1-3 read the bookkeeping that the
graph keeps current under every edit instead of rescanning it; rule 1
leaves its "not clean" verdicts there, which changes no later answer.
Rules 4 and 5 read the degree-2 paths and rules 6 and 7 the pendant-tree
map that the graph keeps until its next edit, so a sweep of rules 4-7
that fires nothing walks the chains once and the pendant trees once.

Edits are encoded as small op tuples:

    ("del", v)          delete vertex v
    ("mult", u, v, m)   force edge uv to multiplicity m (0 removes it)
    ("edge", u, v, m)   add m parallel copies of uv

Rules fire on their first trigger in a deterministic scan order (smallest
vertex / component ids first); only the hanger and marking rules batch,
since their edits are computed from a whole stratification at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import marking
from .cliques import attachment
from .combinatorics import q_expansion
from .flows import min_vertex_separator
from .modulator import Modulator
from .multigraph import MultiGraph
from .recognition import component_clean

Op = tuple


@dataclass(frozen=True)
class RuleApplication:
    """One fired rule: its id, the edit ops, and the budget change."""

    rule: str
    ops: tuple[Op, ...]
    k_delta: int = 0
    affected: tuple[int, ...] = ()


def apply_ops(g: MultiGraph, ops) -> None:
    for op in ops:
        if op[0] == "del":
            g.delete_vertex(op[1])
        elif op[0] == "mult":
            g.set_multiplicity(op[1], op[2], op[3])
        elif op[0] == "edge":
            g.add_edge(op[1], op[2], op[3])
        else:
            raise ValueError(f"unknown op {op!r}")


def deletion(rule: str, vs, k_delta: int = 0, affected=None) -> RuleApplication:
    vs = sorted(vs)
    return RuleApplication(rule=rule, ops=tuple(("del", v) for v in vs),
                           k_delta=k_delta,
                           affected=tuple(sorted(affected)) if affected is not None
                           else tuple(vs))


# ---------------------------------------------------------------------------
# rules on the raw graph
# ---------------------------------------------------------------------------

def rule1_drop_clean_component(g: MultiGraph, k: int):
    """Delete a whole component that is already simple and clean.

    Components are walked by ascending minimum id and the scan stops at
    the first clean one.  A component this scan found not clean keeps
    that verdict in the graph until an edit touches it, so only the
    components without one are checked again; since a clean component
    is deleted as soon as it is found, every kept verdict is "not clean"
    and the first clean component is the same as a full rescan's.
    """
    for comp in g.unjudged_components():
        if component_clean(g, comp):
            return deletion("1", comp)
    return None


def rule2_cap_multiplicity(g: MultiGraph, k: int):
    """Reduce the least edge with multiplicity above two down to two."""
    e = g.least_heavy_edge()
    if e is None:
        return None
    return RuleApplication(rule="2", ops=(("mult", *e, 2),), affected=e)


def rule3_many_double_edges(g: MultiGraph, k: int):
    """A vertex with k+1 doubled neighbors is in every solution; the
    least such vertex goes."""
    v = g.least_doubled_hub(k + 1)
    return None if v is None else deletion("3", [v], k_delta=-1)


def rule4_trim_tail(g: MultiGraph, k: int):
    """Cut a pendant degree-2 tail down to one edge."""
    for p in g.find_degree2_paths():
        if p.kind == "tail" and len(p.vertices) >= 3:
            return deletion("4", p.vertices[2:], affected=p.vertices)
    return None


def rule5_shrink_degree2_path(g: MultiGraph, k: int):
    """Contract a non-tail degree-2 path with >= 5 vertices to 4.

    Interior vertices go away and the two survivors next to the endpoints
    become adjacent.  Chordless cycles (pure, or hanging off a single
    anchor) run through the same edit, shrinking them towards a 4-cycle.
    """
    for p in g.find_degree2_paths():
        if p.kind == "tail" or len(p.vertices) < 5:
            continue
        vs = p.vertices
        ops = [("del", v) for v in vs[2:-2]]
        ops.append(("edge", vs[1], vs[-2], 1))
        return RuleApplication(rule="5", ops=tuple(ops), affected=vs)
    return None


def branch_path(g: MultiGraph, x: int, piece) -> list[int]:
    """x, its one neighbor in the pendant tree ``piece``, then degree-2
    vertices up to the first vertex of degree >= 3: the tree's nearest
    branch vertex, which ends the list."""
    path = [x] + [u for u in g.neighbors(x) if u in piece]
    if len(path) != 2:
        raise AssertionError("a pendant tree hangs by one edge")
    while g.degree(path[-1]) < 3:
        ahead = [w for w in g.neighbors(path[-1]) if w != path[-2]]
        if not ahead:
            raise AssertionError("pendant tree ends before a branch vertex")
        path.append(ahead[0])
    return path


def rule6_prune_pendant_tree(g: MultiGraph, k: int):
    """Replace a branching pendant tree by its nearest claw.

    Keeps the path from the attachment vertex to the closest vertex of
    degree >= 3 plus two of that vertex's other neighbors (smallest ids);
    the rest of the pendant tree goes.
    """
    for x, trees in g.pendant_trees().items():
        for piece in trees:
            if all(g.degree(v) < 3 for v in piece):
                continue
            path = branch_path(g, x, piece)
            keep = set(path)
            extra = [w for w in g.neighbors(path[-1])
                     if w in piece and w not in keep]
            keep.update(extra[:2])
            drop = [u for u in piece if u not in keep]
            if drop:
                return deletion("6", drop, affected=[x] + sorted(piece))
    return None


def rule7_limit_pendant_trees(g: MultiGraph, k: int):
    """Keep at most three pendant trees per attachment vertex."""
    for x, trees in g.pendant_trees().items():
        if len(trees) >= 4:
            drop = [u for t in trees[3:] for u in t]
            return deletion("7", drop, affected=[x] + drop)
    return None


# ---------------------------------------------------------------------------
# rules using the modulator
# ---------------------------------------------------------------------------

def rule8_remove_bad_hangers(g: MultiGraph, k: int, mod: Modulator):
    """Delete every hanger of every bad hook."""
    drop = sorted({u for w in mod.bad_hooks
                   for c in mod.hangers[w] for u in c})
    if not drop:
        return None
    return deletion("8", drop, affected=sorted(mod.bad_hooks) + drop)


def rule9_flower(g: MultiGraph, k: int, mod: Modulator):
    """A base vertex with 4k+3 disjoint cycles into the tree side is in
    every solution; the flowers come from the modulator."""
    for v, fl in mod.flowers.items():
        if fl.order >= 4 * k + 3:
            return deletion("9", [v], k_delta=-1)
    return None


def rule10_rewire_expansion(g: MultiGraph, k: int, mod: Modulator):
    """Rewire a base vertex with a huge number of edges to the tree side.

    With v's cycle cover Z_v removed, the tree-side components touching v
    each do so by exactly one plain edge; matched against Z_v + (S - v), a
    5-expansion pins a set A that every solution avoiding v must contain.
    The edit drops v's contacts into the matched components and doubles
    v's edges onto A, which preserves the answer and shrinks the graph.
    The flower and its cover Z_v come from the modulator.
    """
    for v, fl in mod.flowers.items():
        z_v = fl.cover
        if fl.order > 4 * k + 2:
            raise AssertionError("flower rule must fire before this one")
        if len(z_v) > 8 * k + 4:
            raise AssertionError("the cycle cover outgrew its flower")
        deg = sum(g.multiplicity(v, u) for u in g.neighbors(v) if u in mod.v2)
        if deg < 7 * (len(mod.s) + len(z_v)) + 5:
            continue
        left = sorted((set(z_v) | mod.s) - {v})
        comps = {}      # component label -> vertex set
        contact = {}    # component label -> the one neighbor of v inside
        nbrs = {}       # component label -> left-side neighbors
        for comp in g.components(mod.v2 - set(z_v)):
            touched = [u for u in comp if g.has_edge(v, u)]
            if not touched:
                continue
            if len(touched) != 1 or g.multiplicity(v, touched[0]) != 1:
                raise AssertionError(
                    "a second contact would be a cycle missed by the cover")
            label = comp[0]
            comps[label] = set(comp)
            contact[label] = touched[0]
            nbrs[label] = [z for z in left
                           if any(g.has_edge(z, u) for u in comp)]
        if len(comps) < 5 * (len(mod.s) + len(z_v)) + 5:
            raise AssertionError(
                "the degree bound must force this many contact components")
        a_set, b_set, match = q_expansion(left, sorted(comps), nbrs, 5)
        if not a_set:
            raise AssertionError(
                "expansion side A may not be empty at this size")
        saturated = {lbl for partners in match.values() for lbl in partners}
        if not saturated <= b_set:
            raise AssertionError("the expansion saturates only side B")
        if len(b_set) - len(saturated) < 5:
            raise AssertionError(
                "side B keeps at least five unsaturated components")
        for lbl in sorted(b_set):
            outside = {w for u in comps[lbl] for w in g.neighbors(u)} - comps[lbl]
            if not outside <= set(a_set) | {v}:
                raise AssertionError(
                    "expansion components may only reach A and v")
        ops = [("mult", v, contact[lbl], 0) for lbl in sorted(saturated)]
        ops += [("mult", v, a, 2) for a in sorted(a_set)]
        return RuleApplication(rule="10", ops=tuple(ops),
                               affected=(v,) + tuple(sorted(a_set)))
    return None


def rule11_delete_expansion_side(g: MultiGraph, k: int, mod: Modulator):
    """Many cyclic components force part of the base set into the solution."""
    if not mod.v1:
        return None
    # label each component by its minimum id: q_expansion sorts the labels
    comps = {min(p.order): p.order for p in mod.paths}
    if len(comps) < 3 * len(mod.s):
        return None
    nbrs = {}
    for label, comp in comps.items():
        touching = [s for s in sorted(mod.s)
                    if any(g.has_edge(s, u) for u in comp)]
        if not touching:
            raise AssertionError(
                "a stranded cyclic part would be a clean component")
        nbrs[label] = touching
    s_hat, _, _ = q_expansion(sorted(mod.s), sorted(comps), nbrs, 3)
    if not s_hat:
        raise AssertionError("expansion of a nonempty base set cannot vanish")
    return deletion("11", sorted(s_hat), k_delta=-len(s_hat))


def rule12_many_cliques_neighbor(g: MultiGraph, k: int, mod: Modulator):
    """A base vertex adjacent to 6k+5 cliques of one component must go."""
    for v in sorted(mod.s):
        nbr = set(g.neighbors(v))
        for path in mod.paths:
            hit = sum(1 for kq in path.cliques if nbr.intersection(kq))
            if hit >= 6 * k + 5:
                return deletion("12", [v], k_delta=-1)
    return None


def rule13_bypass_clique(g: MultiGraph, k: int, mod: Modulator):
    """Shortcut one clique inside a long run of cliques unseen by the base set.

    Inside a window of 14k+5 consecutive base-set-free cliques, take the
    clique 7k in (first vertex x) and the one five later (first vertex y).
    A minimum x-y separator of the component is a clique of it, so it
    meets at most two consecutive partition cliques and must miss one of
    the three strictly between; that clique is deleted and its attachment
    sets in the two flanking cliques get joined.
    """
    ns = {u for s in mod.s for u in g.neighbors(s)}
    span = 14 * k + 5
    for path in mod.paths:
        last = len(path.cliques) - 1
        run = 0
        for j, kq in enumerate(path.cliques):
            run = run + 1 if not ns.intersection(kq) else 0
            i = j - span + 1 + 7 * k
            if run < span or i + 5 > last:
                continue
            x = path.cliques[i][0]
            y = path.cliques[i + 5][0]
            comp = sorted(path.order)
            sep = set(min_vertex_separator(g.induced(comp), x, y))
            ell = next((e for e in (i + 1, i + 2, i + 3)
                        if not sep.intersection(path.cliques[e])), None)
            if ell is None:
                raise AssertionError(
                    "x-y separator meets all three middle cliques")
            mid = path.cliques[ell]
            flank_a = attachment(g, path.cliques[ell - 1], mid)
            flank_b = attachment(g, path.cliques[ell + 1], mid)
            if any(g.has_edge(a, b) for a in flank_a for b in flank_b):
                raise AssertionError(
                    "flanking cliques of a partition are never adjacent")
            ops = [("del", v) for v in sorted(mid)]
            ops += [("edge", a, b, 1) for a in flank_a for b in flank_b]
            return RuleApplication(rule="13", ops=tuple(ops),
                                   affected=tuple(sorted(mid)))
    return None


def rule14_delete_unmarked(g: MultiGraph, k: int, mod: Modulator):
    """Delete every clique vertex the marking scan leaves unmarked."""
    drop: list[int] = []
    for path in mod.paths:
        drop.extend(marking.unmarked_vertices(g, k, mod.s, path))
    if not drop:
        return None
    return deletion("14", sorted(drop))


#: scan order: (rule id, needs-modulator, trigger function)
RULES = (
    ("1", False, rule1_drop_clean_component),
    ("2", False, rule2_cap_multiplicity),
    ("3", False, rule3_many_double_edges),
    ("4", False, rule4_trim_tail),
    ("5", False, rule5_shrink_degree2_path),
    ("6", False, rule6_prune_pendant_tree),
    ("7", False, rule7_limit_pendant_trees),
    ("8", True, rule8_remove_bad_hangers),
    ("9", True, rule9_flower),
    ("10", True, rule10_rewire_expansion),
    ("11", True, rule11_delete_expansion_side),
    ("12", True, rule12_many_cliques_neighbor),
    ("13", True, rule13_bypass_clique),
    ("14", True, rule14_delete_unmarked),
)
