"""Undirected multigraph with stable integer vertex ids.

Vertices are identified by non-negative integers that never get reused or
renumbered by any operation, so reduction traces can refer to vertices by id
across the whole run.  Edge multiplicities are arbitrary positive integers
(the reduction pipeline caps them at 2 early on, but the container does not
care).  Self-loops are rejected.

Every edit keeps the graph's bookkeeping current, so the fixpoint's
cheapest rules read it instead of rescanning the graph:

- the edge count, counting multiplicities, is a field;
- an index holds the heavy edges (multiplicity above 2) and each vertex's
  count of doubled neighbours (multiplicity 2 or more);
- the components that rule 1 found not clean keep that verdict until an
  edit touches one of their vertices, so the scan for a clean component
  re-checks only the components without one, and the exact search
  starts from them;
- the maximal degree-2 paths and the pendant-tree map, once asked for,
  are kept until the next edit, so the rules that read them between two
  edits share one walk.

The bookkeeping exists from construction on.  ``from_edges`` fills the
adjacency first and builds the index once.  Copies and induced subgraphs
rebuild the index from their own adjacency in one walk and start with
no verdicts and no kept paths or trees, so a copy never trusts what its
source remembers.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Iterable, Iterator, NamedTuple


class Deg2Path(NamedTuple):
    """A maximal path whose internal vertices all have degree exactly 2.

    ``kind`` is ``"tail"`` (first vertex has degree > 2, last has degree 1)
    or ``"other"``.
    """

    vertices: tuple[int, ...]
    kind: str


class MultiGraph:
    __slots__ = ("_adj", "_next_id", "_m", "_heavy", "_doubled", "_judged",
                 "_pending", "_paths", "_pendant")

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, int]] = {}
        self._next_id = 0
        self._m = 0  # edges, counting multiplicities
        # heavy-edge index: a heap of pairs (u, v), u < v, holding every
        # edge of multiplicity above 2 (and stale pairs, dropped when they
        # reach the top), and the count of doubled neighbours of every
        # vertex that has one
        self._heavy: list[tuple[int, int]] = []
        self._doubled: dict[int, int] = {}
        # rule 1's verdicts: each vertex of a component judged not clean
        # maps to that component, and a heap holds every vertex without a
        # verdict (and stale ones)
        self._judged: dict[int, list[int]] = {}
        self._pending: list[int] = []
        # the degree-2 paths and the pendant-tree map of this graph state,
        # built when first asked for and dropped by the next edit
        self._paths: list[Deg2Path] | None = None
        self._pendant: dict[int, list[list[int]]] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int] | tuple[int, int, int]],
                   vertices: Iterable[int] = ()) -> "MultiGraph":
        """Build a graph from ``(u, v)`` or ``(u, v, multiplicity)`` tuples.

        Repeated pairs accumulate multiplicity.  ``vertices`` may list extra
        isolated vertices.  The adjacency is filled first and the
        bookkeeping built from it once, so no edit pays for its upkeep.
        """
        g = cls()
        for v in vertices:
            g.ensure_vertex(v)
        adj = g._adj
        total = 0
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                m = 1
            else:
                u, v, m = e  # type: ignore[misc]
            if u not in adj:
                g.ensure_vertex(u)
            if v not in adj:
                g.ensure_vertex(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if m <= 0:
                raise ValueError("multiplicity must be positive")
            au, av = adj[u], adj[v]
            au[v] = av[u] = au.get(v, 0) + m
            total += m
        g._m = total
        g._rebuild()
        return g

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._next_id = self._next_id
        g._m = self._m
        g._rebuild()
        return g

    # -- vertices -------------------------------------------------------

    def add_vertex(self) -> int:
        """Create a fresh vertex and return its (never reused) id."""
        v = self._next_id
        self._next_id += 1
        self._new_vertex(v)
        return v

    def ensure_vertex(self, v: int) -> int:
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._new_vertex(v)
            if v >= self._next_id:
                self._next_id = v + 1
        return v

    def _new_vertex(self, v: int) -> None:
        self._adj[v] = {}
        heappush(self._pending, v)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def delete_vertex(self, v: int) -> None:
        self._touch(v)
        for u, m in self._adj.pop(v).items():
            del self._adj[u][v]
            self._m -= m
            if m >= 2:
                self._count_doubled(u, -1)
        self._doubled.pop(v, None)

    @property
    def vertices(self) -> list[int]:
        return sorted(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    # -- edges ----------------------------------------------------------

    def add_edge(self, u: int, v: int, multiplicity: int = 1) -> None:
        """Add ``multiplicity`` parallel copies of edge uv."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")
        if u not in self._adj or v not in self._adj:
            raise KeyError("both endpoints must exist")
        self._set(u, v, self._adj[u].get(v, 0) + multiplicity)

    def set_multiplicity(self, u: int, v: int, multiplicity: int) -> None:
        """Force edge uv to the given multiplicity; 0 removes the edge."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        if u not in self._adj or v not in self._adj:
            raise KeyError("both endpoints must exist")
        self._set(u, v, multiplicity)

    def _set(self, u: int, v: int, m: int) -> None:
        """Give the edge uv multiplicity ``m`` >= 0, keeping the
        bookkeeping: the edge count, the heavy-edge index, and the
        verdicts of the components of u and v, which it drops."""
        au, av = self._adj[u], self._adj[v]
        old = au.get(v, 0)
        if m:
            au[v] = av[u] = m
        elif old:
            del au[v], av[u]
        self._m += m - old
        if (old >= 2) != (m >= 2):
            step = 1 if m >= 2 else -1
            self._count_doubled(u, step)
            self._count_doubled(v, step)
        if old <= 2 < m:
            heappush(self._heavy, (u, v) if u < v else (v, u))
        self._touch(u)
        self._touch(v)

    def _count_doubled(self, v: int, step: int) -> None:
        c = self._doubled.get(v, 0) + step
        if c:
            self._doubled[v] = c
        else:
            del self._doubled[v]

    def _touch(self, v: int) -> None:
        """Drop the verdict of v's component, if it has one, and the kept
        paths and trees of the graph."""
        self._paths = self._pendant = None
        comp = self._judged.get(v)
        if comp is not None:
            for u in comp:
                del self._judged[u]
                heappush(self._pending, u)

    def multiplicity(self, u: int, v: int) -> int:
        return self._adj[u].get(v, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors of v, sorted."""
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        """Degree counting multiplicities."""
        return sum(self._adj[v].values())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(u, v, multiplicity)`` with u < v, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v, self._adj[u][v])

    @property
    def edge_count(self) -> int:
        """Number of edges counting multiplicities."""
        return self._m

    def double_edges(self, vs: Iterable[int] | None = None
                     ) -> list[tuple[int, int]]:
        """Sorted pairs (u, v), u < v, joined by 2 or more parallel edges in
        the subgraph induced on ``vs`` (default: the whole graph).

        Only the neighbourhoods of vertices with a doubled neighbour are
        read.
        """
        keep = self._subset(vs)
        doubled = self._doubled
        # self._adj[u] raises KeyError on a u missing from the graph
        ends = (doubled if vs is None
                else [u for u in keep if self._adj[u] and u in doubled])
        return sorted((u, v) for u in ends for v, m in self._adj[u].items()
                      if m >= 2 and u < v and v in keep)

    def least_heavy_edge(self) -> tuple[int, int] | None:
        """The least pair (u, v), u < v, joined by more than 2 parallel
        edges, or None."""
        heavy = self._heavy
        while heavy:
            u, v = heavy[0]
            if self._adj.get(u, {}).get(v, 0) > 2:
                return u, v
            heappop(heavy)
        return None

    def least_doubled_hub(self, t: int) -> int | None:
        """The least vertex with at least ``t`` >= 1 doubled neighbours
        (joined to it by 2 or more parallel edges), or None."""
        return min((v for v, c in self._doubled.items() if c >= t),
                   default=None)

    def _rebuild(self) -> None:
        """Rebuild the heavy-edge index from the adjacency in one walk,
        with every vertex pending a verdict."""
        heavy, doubled = [], {}
        for u, nbrs in self._adj.items():
            if nbrs and max(nbrs.values()) >= 2:
                c = 0
                for v, m in nbrs.items():
                    if m >= 2:
                        c += 1
                        if m > 2 and u < v:
                            heavy.append((u, v))
                doubled[u] = c
        heavy.sort()
        self._heavy, self._doubled = heavy, doubled
        self._judged, self._pending = {}, sorted(self._adj)

    # -- structure ------------------------------------------------------

    def components(self, vs: Iterable[int] | None = None) -> list[list[int]]:
        """Connected components of the subgraph induced on ``vs`` (default:
        the whole graph), as sorted vertex lists ordered by minimum id.

        Nothing is copied: the search walks this graph and skips every
        vertex outside ``vs``.
        """
        keep = self._subset(vs)
        seen: set[int] = set()
        comps = []
        for s in sorted(keep):
            if s not in seen:
                comp = self.component_of(s, keep)
                seen.update(comp)
                comps.append(comp)
        return comps

    def component_of(self, v: int, vs: Iterable[int] | None = None) -> list[int]:
        """Sorted component of ``v`` in the subgraph induced on ``vs``
        (default: the whole graph); ``v`` must lie in ``vs``."""
        keep = self._subset(vs)
        seen = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in seen and y in keep:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)

    def induced(self, vs: Iterable[int]) -> "MultiGraph":
        """Induced sub-multigraph on ``vs``; stable ids are preserved."""
        keep = set(vs)
        g = MultiGraph()
        for v in keep:
            if v not in self._adj:
                raise KeyError(f"vertex {v} not in graph")
        g._adj = {v: {u: m for u, m in self._adj[v].items() if u in keep} for v in keep}
        g._next_id = self._next_id
        g._m = sum(sum(nbrs.values()) for nbrs in g._adj.values()) // 2
        g._rebuild()
        return g

    def unjudged_components(self) -> Iterator[list[int]]:
        """Yield the components without a verdict, by ascending minimum id.

        Asking for the next component records the one yielded last as not
        clean, a verdict it keeps until an edit touches one of its
        vertices; a caller that stops at a component records nothing for
        it.  The graph must not change while the iteration runs.
        """
        judged, pending = self._judged, self._pending
        while pending:
            v = pending[0]
            if v in judged or v not in self._adj:
                heappop(pending)
                continue
            comp = self.component_of(v)
            yield comp
            for u in comp:
                judged[u] = comp

    def judged_components(self) -> list[list[int]]:
        """The components that carry rule 1's "not clean" verdict, by
        ascending minimum id."""
        comps = {id(comp): comp for comp in self._judged.values()}
        return sorted(comps.values())

    def hanging_trees(self, vs: Iterable[int] | None = None, keep=()
                      ) -> list[tuple[int, int, list[int]]]:
        """Strip leaves from the subgraph induced on ``vs`` (default: the
        whole graph) until none is left to strip.

        A leaf is a vertex outside ``keep`` with one neighbour left, joined
        to it by a single plain edge.  For each stripped u, in stripping
        order, the result holds ``(w, u, tree)``: w is the vertex u hung
        from, and ``tree`` lists u and everything stripped below it, a
        simple tree whose only edge to the rest of ``vs`` is the plain
        edge wu.  The vertices never stripped hold no leaf; a component
        stripped down to one vertex was a simple tree.
        """
        alive = set(self._adj if vs is None else vs)
        left = {v: sum(1 for u in self._adj[v] if u in alive) for v in alive}
        queue = deque(v for v in sorted(alive) if left[v] == 1 and v not in keep)
        below: dict[int, list[int]] = {}
        out = []
        while queue:
            u = queue.popleft()
            ws = [w for w in self._adj[u] if w in alive]
            if len(ws) != 1 or self._adj[u][ws[0]] != 1:
                continue
            w = ws[0]
            alive.remove(u)
            tree = [u, *below.pop(u, ())]
            below.setdefault(w, []).extend(tree)
            out.append((w, u, tree))
            left[w] -= 1
            if left[w] == 1 and w not in keep:
                queue.append(w)
        return out

    def pendant_trees(self) -> dict[int, list[list[int]]]:
        """Every pendant tree of the graph, by the vertex x it hangs from.

        A pendant tree at x is a component of (component of x) - x that
        is a simple tree joined to x by one plain edge, where x is a cut
        vertex.  Keys ascend, and each x maps to its trees as sorted lists
        ordered by minimum id.  One leaf-stripping pass per component
        finds them all: each stripped u hangs its tree from w.  In a
        component that strips down to a single vertex, a simple tree, the
        branch holding u's parent is a pendant tree at u as well.  The map
        is kept until the next edit, so callers must not change it.
        """
        if self._pendant is None:
            self._pendant = self._strip_pendant_trees()
        return self._pendant

    def _strip_pendant_trees(self) -> dict[int, list[list[int]]]:
        at: dict[int, list[list[int]]] = {}
        for comp in self.components():
            hung = self.hanging_trees(comp)
            is_tree = len(hung) == len(comp) - 1
            for w, u, tree in hung:
                at.setdefault(w, []).append(sorted(tree))
                if is_tree and len(tree) > 1:
                    cut = set(tree)
                    at[u].append([v for v in comp if v not in cut])
            if is_tree and hung:
                root = hung[-1][0]  # the vertex left; one child makes no cut
                if len(at[root]) == 1:
                    del at[root]
        return {x: sorted(at[x]) for x in sorted(at)}

    def _subset(self, vs: Iterable[int] | None):
        """``vs`` as a container with fast membership (the graph if None).

        Sets and dicts pass through uncopied, so ``components`` can hand
        its container to ``component_of`` once per component for free.
        """
        if vs is None:
            return self._adj
        return vs if isinstance(vs, (set, frozenset, dict)) else set(vs)

    # -- degree-2 structure --------------------------------------------

    def find_degree2_paths(self) -> list[Deg2Path]:
        """All maximal degree-2 paths, canonically oriented and sorted.

        A chain vertex has exactly two distinct neighbours, each joined by
        a single edge.  Each chain is walked once from its least vertex s,
        first toward the lesser chain neighbour of s, then the other way,
        and is extended by the vertices where the walks leave it.  A pure
        cycle starts at s and a cycle hanging at one anchor starts at the
        anchor; both then follow s by its lesser chain neighbour.  A
        ``tail`` starts at a vertex of degree > 2 and ends in a pendant
        vertex; any other path starts at its lesser end.  A vertex is
        internal to at most one returned path.  The list is kept until the
        next edit, so callers must not change it.
        """
        if self._paths is None:
            self._paths = self._walk_degree2_paths()
        return self._paths

    def _walk_degree2_paths(self) -> list[Deg2Path]:
        adj = self._adj
        chain = {v for v, nbrs in adj.items()
                 if len(nbrs) == 2 and all(m == 1 for m in nbrs.values())}

        def walk(prev: int, cur: int) -> list[int]:
            # from cur away from prev to the first vertex off the chain,
            # or round a chordless cycle back to s
            out = [cur]
            while cur in chain and cur != s:
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
                out.append(cur)
            return out

        def rank(v: int) -> tuple[bool, int]:
            return self.degree(v) == 1, v

        paths: list[Deg2Path] = []
        done: set[int] = set()
        for s in sorted(chain):
            if s in done:
                continue
            lo, hi = sorted(adj[s], key=lambda y: (y not in chain, y))
            ahead = walk(s, lo)
            if ahead[-1] == s:  # the chain is a chordless cycle
                verts = [s, *ahead[:-1]]
            else:
                verts = walk(s, hi)[::-1] + [s] + ahead
                if verts[0] == verts[-1]:  # a cycle hanging at one anchor
                    verts.pop()
                elif rank(verts[0]) > rank(verts[-1]):
                    verts.reverse()
            done.update(verts)
            tail = self.degree(verts[0]) > 2 and self.degree(verts[-1]) == 1
            paths.append(Deg2Path(tuple(verts), "tail" if tail else "other"))
        paths.sort(key=lambda p: p.vertices)
        return paths

    # -- misc -----------------------------------------------------------

    def compact(self, vs: Iterable[int] | None = None):
        """Bitmask view: ``(ids, index, adj_masks)`` for the given vertex set.

        ``ids`` is the sorted vertex list, ``index`` maps id -> position and
        ``adj_masks[i]`` has bit j set iff ids[i] and ids[j] share an edge
        (multiplicities are ignored here).
        """
        ids = sorted(self._adj) if vs is None else sorted(vs)
        index = {v: i for i, v in enumerate(ids)}
        masks = [0] * len(ids)
        for i, v in enumerate(ids):
            m = 0
            for u in self._adj[v]:
                j = index.get(u)
                if j is not None:
                    m |= 1 << j
            masks[i] = m
        return ids, index, masks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiGraph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.edge_count})"
