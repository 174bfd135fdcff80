"""Fixpoint driver for the reduction rules.

Applies the rules in order, restarting from the first after every hit,
so a rule only ever fires with all earlier ones exhausted; after a
pendant trim (rule 4, 6 or 7, or rule 8 deleting exactly the hangers of
the bad hooks) the pass resumes at rule 4, since such an edit cannot
make rule 1, 2 or 3 applicable (proof below).  The later rules need a
base set (vertices whose removal leaves every component a proper
interval graph or a tree) and its strata.  The driver keeps one
``Modulator``, the latest base set S with its strata, stamped with the
graph version they describe.  A pass first reaching those rules
computes one if there is none; while the version matches, the rules
read it as it is; after an edit, S less the deleted vertices is
classified again.  Whether G - S is still clean is decided by
``classify_tree_side`` alone: it raises ``ValueError`` on a broken S,
which on a kept S means "recompute" and on a fresh one propagates.
Every edit moves the version on, so of the firings that edit the graph
only the rule-8 firing above keeps its strata: it replaces them by
``Modulator.without_bad_hangers()``, the strata rule 8 read less the
deleted hangers, stamped anew, and if rules 4-7 then fire nothing the
base-set rules read those.  The driver tells that firing by asking rule
8 for its edit on the strata it read: rule 8 reads nothing else.  Any
other rule-8 edit restarts at rule 1 and classifies afresh.

Every application strictly shrinks the triple (budget, vertex count,
edge count) in lexicographic order, which is checked and is what
guarantees termination.  The graph keeps its edge count as a field, so
the check costs O(1).

The restart is cheap for the first three rules: the graph keeps its
heavy edges, its doubled-neighbour counts and rule 1's "not clean"
verdicts current under every edit, so rules 1-3 read what changed
instead of rescanning the whole graph, rules 4 and 5 read degree-2
paths that it repairs around each edit, and rules 6 and 7 a pendant-tree
map that it patches after the deletions of rules 4, 6, 7 and 8.  The
kernel is returned as a copy of the working graph, so it carries a
fresh index and no verdicts.  The copy is what keeps memory down:
returning the working graph itself keeps its bitmask view, degree-2
paths, pendant-tree map and verdicts alive with every result, which
raised kbench's median ``peak_rss_mb`` by 11 % on ``small-mixed`` (29.0
to 32.2 MB) and by 4 % on ``planted-tree`` (23.6 to 24.4 MB) over four
alternating pairs on a 2-vCPU machine.  For the same reason the kernel
carries only the driver's last base set S, recorded on the copy
(:meth:`MultiGraph.record_base_set`), never the ``Modulator`` that
holds the working graph: it is the S the final pass read the base-set
rules against, so the audit checks that S instead of searching for
one again.  S is recorded only when the run was not decided no, no
base set came from the greedy fallback, and S was classified at the
final graph version; otherwise, as for a battery without the base-set
rules, the kernel carries none.

Rules 4, 6 and 7 delete only vertices D of a pendant path or pendant
tree of some component C, and keep k; rules 1-3 found nothing before
the edit.  After it they still find nothing:

- Rules 2 and 3.  Only vertices go, so no edge gets heavier, the counts
  of doubled neighbours only fall, and k is unchanged.
- Rule 1.  Every other component is untouched.  C was not clean: it
  has a parallel edge, or it is simple, holds a cycle and is no proper
  interval graph.  Pendant parts are simple, hang by plain edges and lie
  on no cycle, so C - D keeps C's parallel edges and cycles and stays
  connected.  Rules 6 and 7 keep an induced claw too: rule 6 the one at
  the nearest branch vertex (its path neighbour and two children), rule
  7 x with the roots of the three trees it keeps; so C - D is no tree
  and no proper interval graph.  Rule 4 keeps the tail's first edge
  v0 v1, so v1 is a leaf of C - D.  Were C - D clean, it would be a
  tree, or a connected proper interval graph, whose umbrella order
  holds the leaf v1 at one end; growing the tail back from v1 keeps
  either kind, so C would be clean.

Rule 8 deletes the hangers D of the bad hooks and keeps k.  A hanger
is a tree stripped off the tree side of G - S; the S-neighbours F1 are
never stripped and G - S separates the tree side from V1, so each
hanger is a pendant tree of G, hung from its hook by one plain edge.
So C - D stays connected and keeps C's cycles and parallel edges, as
above.  Every chain with a bad hook keeps its two good hooks, with
their hangers; a good hook with its hanger's root and its two chain
neighbours is an induced claw of the tree side, so C - D is no tree and
no proper interval graph, and is not clean.

So the pass after such a firing skips rules 1-3.  A skipped rule 1
leaves the trimmed component without a verdict; the exact search's
root recognizes it itself, and its first solution is that of a search
with every verdict in place (see ``exact``).

The full run is recorded as a trace of rule applications; replaying a
trace against the original graph reproduces the kernel bit for bit.
Base-set (re)computations appear in the trace as op-free entries so a
reader can see which vertices the structural rules were working against.
Whether any of them came from the greedy fallback is kept in the result's
``fallback`` flag, not in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import DEFAULT_NODE_LIMIT
from .modulator import classify_tree_side, compute_base_set
from .multigraph import MultiGraph
from .rules import (RULES, RuleApplication, apply_ops,
                    rule8_remove_bad_hangers)


@dataclass(frozen=True)
class KernelInstance:
    """Result of running the pipeline to fixpoint.

    ``decided_no`` marks instances rejected outright: the budget went
    negative, or the bootstrap search proved that no solution fits.  The
    graph and budget then hold the state at the moment of rejection and
    carry no further meaning.

    ``fallback`` marks a run in which some base set came from the greedy
    fallback after the exact search ran out of nodes: the kernel is still
    equivalent to the input, but its size bound is void, and a no-instance
    may come back as a kernel instead of ``decided_no``.

    ``graph.base_set`` is the base set the final pass read rules 8-14
    against, which leaves ``graph`` clean.  It is None when the run was
    decided no or fell back to greedy, and when the battery's last pass
    read no base set at the final graph version.
    """

    graph: MultiGraph
    k: int
    trace: tuple[RuleApplication, ...]
    decided_no: bool = False
    fallback: bool = False


def replay(original: MultiGraph, k: int, trace) -> tuple[MultiGraph, int]:
    """Re-run a recorded trace against the graph it was recorded on."""
    g = original.copy()
    for app in trace:
        apply_ops(g, app.ops)
        k += app.k_delta
    return g, k


def kernelize(g: MultiGraph, k: int,
              node_limit: int = DEFAULT_NODE_LIMIT,
              rules: tuple = RULES) -> KernelInstance:
    """Reduce (g, k) to an equivalent instance no rule applies to.

    ``rules`` defaults to the full ordered battery; passing a prefix
    stops the fixpoint early (handy for exercising one rule in
    isolation), and the tests pass deliberately broken batteries to
    check that they notice.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    g = g.copy()
    trace: list[RuleApplication] = []
    fallback = False

    def done(decided_no: bool) -> KernelInstance:
        kernel = g.copy()
        if (not (decided_no or fallback) and mod is not None
                and mod.version == g.version):
            kernel.record_base_set(mod.s)
        return KernelInstance(kernel, k, tuple(trace), decided_no, fallback)

    trimmed = False  # the last firing was a pendant trim
    mod = None  # the latest base set and its strata
    while True:
        for rule_id, needs_mod, fn in rules:
            if trimmed and rule_id in ("1", "2", "3"):
                continue
            if needs_mod:
                if mod is not None and mod.version != g.version:
                    try:
                        mod = classify_tree_side(
                            g, [v for v in mod.s if g.has_vertex(v)])
                    except ValueError:  # an edit left G - S unclean
                        mod = None
                if mod is None:
                    base, greedy = compute_base_set(g, k, node_limit)
                    fallback |= greedy
                    if base is None:
                        return done(True)
                    trace.append(RuleApplication(
                        rule="base-set", ops=(), affected=tuple(sorted(base))))
                    mod = classify_tree_side(g, base)
                app = fn(g, k, mod)
            else:
                app = fn(g, k)
            if app is None:
                continue
            before = (k, g.n, g.edge_count)
            apply_ops(g, app.ops)
            k += app.k_delta
            trace.append(app)
            if not (k, g.n, g.edge_count) < before:
                raise AssertionError(
                    "every application must shrink the instance")
            if k < 0:
                return done(True)
            # read off the firing, not the version: a firing that lowered
            # only k would leave rule 3 something to do
            trimmed = app.rule in ("4", "6", "7")
            if app.rule == "8" and app == rule8_remove_bad_hangers(g, k, mod):
                mod = mod.without_bad_hangers()
                trimmed = True
            break
        else:
            return done(False)
