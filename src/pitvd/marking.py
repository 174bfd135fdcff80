"""Marking scheme that bounds how large any clique of a long component stays.

Every clique K of a clique path gets a budget-bounded set of marked
vertices; the final reduction rule deletes whatever stays unmarked.  Marks
come in four groups:

1. adjacency signatures: for every subset Z of the base set with at most
   three vertices (the empty one included) and every in/out pattern f on
   Z, the first and last ``k + 3`` vertices of K matching (Z, f);
2. common neighbors: for base vertices x and selected non-neighbors y of x
   in the previous (next) clique, the last (first) ``k + 3`` vertices of K
   adjacent to both;
3. one-sided neighbors of the selector: for selected neighbors y of x in
   the previous (next) clique, the last (first) ``k + 3`` vertices of K
   adjacent to y but not x;
4. one-sided neighbors of x: for selected neighbors of x in the previous
   (next) clique, extremal vertices of K adjacent to x but not to the
   selector.

"First"/"last" always refer to the umbrella order of the component.  Two
selector widths are deliberately uneven (group 3 takes ``k + 3`` next-side
selectors, group 4 marks only ``k + 1`` vertices on the previous side);
``eta`` absorbs that with a small additive slack.  When a pool holds fewer
vertices than a width asks for, the whole pool is used.

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
    prv = path.cliques[idx - 1] if idx > 0 else None
    nxt = path.cliques[idx + 1] if idx + 1 < len(path.cliques) else None
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

    for x in s_list:
        if prv is not None:
            out_pv = [y for y in prv if not adj(x, y)]
            in_pv = [y for y in prv if adj(x, y)]
            for y in out_pv[-(k + 1):]:
                marked.update([v for v in kq
                               if adj(v, x) and adj(v, y)][-(k + 3):])
            for y in in_pv[-(k + 1):]:
                marked.update([v for v in kq
                               if adj(v, y) and not adj(v, x)][-(k + 3):])
            for y in in_pv[:k + 1]:
                marked.update([v for v in kq
                               if adj(v, x) and not adj(v, y)][:k + 1])
        if nxt is not None:
            out_nt = [z for z in nxt if not adj(x, z)]
            in_nt = [z for z in nxt if adj(x, z)]
            for z in out_nt[:k + 1]:
                marked.update([v for v in kq
                               if adj(v, x) and adj(v, z)][:k + 3])
            for z in in_nt[:k + 3]:
                marked.update([v for v in kq
                               if adj(v, z) and not adj(v, x)][:k + 3])
            for z in in_nt[-(k + 1):]:
                marked.update([v for v in kq
                               if adj(v, x) and not adj(v, z)][-(k + 3):])

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
