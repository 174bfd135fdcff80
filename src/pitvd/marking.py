"""Marking scheme that bounds how large any clique of a long component stays.

Every clique K of a clique path gets a budget-bounded set of marked
vertices; the final reduction rule deletes whatever stays unmarked.  Marks
come in four groups:

1. adjacency signatures: for every subset Z of the base set with at most
   three vertices (the empty one included) and every in/out pattern f on
   Z, the first and last ``k + 3`` vertices of K matching (Z, f);
2. common neighbors: for base vertices x and the first ``k + 1``
   non-neighbors y of x in a flank, the first ``k + 3`` vertices of K
   adjacent to both;
3. one-sided neighbors of the selector: for the first ``w`` neighbors y
   of x in a flank, the first ``k + 3`` vertices of K adjacent to y but
   not x;
4. one-sided neighbors of x: for the last ``k + 1`` neighbors y of x in
   a flank, the last ``w`` vertices of K adjacent to x but not to y.

Group 1 takes first and last alike, so it reads K in the umbrella order
of the component.  Groups 2-4 run once for each flank of K, the previous
and the next clique of the path, and read the previous side as the
mirror image of the next: there the flank and K are both read against
the umbrella order.  So in a flank "first" means nearest K, and in K it
means farthest from that flank.  ``w`` is the one width that differs
between the sides: ``k + 1`` on the previous side and ``k + 3`` on the
next; ``eta`` absorbs that with a small additive slack.  When a pool
holds fewer vertices than a width asks for, the whole pool is used.

Group 1 with Z empty already marks the first and last ``k + 3`` vertices
of K, and groups 2-4 only ever add vertices of K, so a clique of at most
``2(k + 3)`` vertices is marked whole without a scan.  For a larger
clique, each vertex's adjacency to the base set is read once into a
bitmask signature (|K|·|S| adjacency tests).  Z then ranges only over base
vertices with a neighbor in K: one without splits K exactly as Z without
it does, and that smaller Z is enumerated too.  For each Z, one pass over
K sorts it into the (Z, f) pools by ``signature & mask(Z)``, keeping K's
order, so group 1 costs C(|S_K|, <=3)·|K| instead of
C(|S|, <=3)·2^|Z|·|K|·|Z| adjacency tests.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .cliques import CliquePath
from .multigraph import MultiGraph


def eta(k: int, s_size: int) -> int:
    """Upper bound on the number of marked vertices in one clique."""
    signatures = sum(2 ** i * comb(s_size, i) for i in range(4))
    return 2 * (k + 3) * signatures + 6 * s_size * (k + 1) * (k + 3) + 4 * s_size


def mark_clique(g: MultiGraph, k: int, s, path: CliquePath, idx: int) -> set[int]:
    """Marked vertices of clique ``idx`` of the partition ``path``."""
    kq = path.cliques[idx]
    if len(kq) <= 2 * (k + 3):
        return set(kq)
    s_list = sorted(s)
    adj = g.has_edge
    marked: set[int] = set()

    # bit i of a signature: adjacent to s_list[i]
    sigs = [sum(1 << i for i, x in enumerate(s_list) if adj(v, x)) for v in kq]
    seen = 0
    for sig in sigs:
        seen |= sig
    touching = [1 << i for i in range(len(s_list)) if seen >> i & 1]
    for size in range(4):
        for z in combinations(touching, size):
            zmask = sum(z)
            pools: dict[int, list[int]] = {}
            for v, sig in zip(kq, sigs):
                pools.setdefault(sig & zmask, []).append(v)
            for pool in pools.values():
                marked.update(pool[:k + 3])
                marked.update(pool[-(k + 3):])

    # groups 2-4, once per flank; a missing flank is empty
    prv = path.cliques[idx - 1] if idx else ()
    nxt = path.cliques[idx + 1] if idx + 1 < len(path.cliques) else ()
    for flank, kseq, w in ((prv[::-1], kq[::-1], k + 1), (nxt, kq, k + 3)):
        for x in s_list:
            out = [y for y in flank if not adj(x, y)]
            inn = [y for y in flank if adj(x, y)]
            for y in out[:k + 1]:
                marked.update([v for v in kseq
                               if adj(v, x) and adj(v, y)][:k + 3])
            for y in inn[:w]:
                marked.update([v for v in kseq
                               if adj(v, y) and not adj(v, x)][:k + 3])
            for y in inn[-(k + 1):]:
                marked.update([v for v in kseq
                               if adj(v, x) and not adj(v, y)][-w:])

    if len(marked) > eta(k, len(s_list)):
        raise AssertionError("mark budget exceeded")
    return marked


def unmarked_vertices(g: MultiGraph, k: int, s, path: CliquePath) -> list[int]:
    """All vertices of the component left unmarked by every clique's scan."""
    out: list[int] = []
    for idx, kq in enumerate(path.cliques):
        keep = mark_clique(g, k, s, path, idx)
        out.extend(v for v in kq if v not in keep)
    return sorted(out)
