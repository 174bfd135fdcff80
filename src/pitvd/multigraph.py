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
- the maximal degree-2 paths, once asked for, are kept with an index
  from each chain vertex to its path; an edit records the vertices it
  touched, and the next ask repairs the list around them, so the cost
  of keeping the paths current follows the edits, not the graph;
- the map of maximal pendant trees, once asked for, is kept with each
  stripped vertex's parent from the leaf-stripping pass that made it;
  deletions that take vertices out of pendant trees, or whole
  components, are patched into it on the next ask, and any other edit
  drops it (see :meth:`pendant_trees`).  The trees are disjoint and
  the map is linear in the graph;
- the whole-graph bitmask view (:meth:`view`), once asked for, is kept
  until the next edit, so the readers between two edits share one walk;
- a version number changes with every edit, so a reader can tell
  whether the graph changed since it last looked.

Each edit method keeps the edge count and the index itself, and calls
``_touch`` once for every vertex it edits (a deleted vertex with its
neighbours).  ``_touch`` alone decides what the edit does to the other
structures: which it drops, and what it records for the ones that repair
themselves on the next ask.

The bookkeeping exists from construction on.  ``from_edges`` fills the
adjacency first and builds the index once.  Copies and induced subgraphs
rebuild the index from their own adjacency in one walk and start with
no verdicts and no kept paths, trees, parents or view, so a copy never
trusts what its source remembers.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
                 "_pending", "_paths", "_path_of", "_touched", "_pendant",
                 "_parent", "_dead", "_view", "_version")

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
        # the degree-2 paths, built when first asked for, each chain
        # vertex's path, and the vertices edited since the last repair
        # (the last two made with the paths: a graph is copied often)
        self._paths: list[Deg2Path] | None = None
        self._path_of: dict[int, Deg2Path] | None = None
        self._touched: set[int] | None = None
        # the pendant-tree map, built when first asked for, each stripped
        # vertex's parent, and the vertices deleted since the last build
        # or patch with their neighbours (the last two made with the map)
        self._pendant: dict[int, list[list[int]]] | None = None
        self._parent: dict[int, int] | None = None
        self._dead: list[tuple[int, dict[int, int]]] | None = None
        # the bitmask view of this graph state, built when first asked for
        # and dropped by the next edit
        self._view: tuple[list[int], dict[int, int], list[int]] | None = None
        self._version = 0

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
        """Create a fresh vertex, one past the largest id the graph has
        ever held, through :meth:`ensure_vertex`; ids are never reused."""
        return self.ensure_vertex(self._next_id)

    def ensure_vertex(self, v: int) -> int:
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = {}
            self._touch(v)
            heappush(self._pending, v)
            if v >= self._next_id:
                self._next_id = v + 1
        return v

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def delete_vertex(self, v: int) -> None:
        nbrs = self._adj.pop(v)
        self._touch(v, nbrs)
        for u, m in nbrs.items():
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
        """Add ``multiplicity`` >= 1 parallel copies of edge uv: the sum
        goes through :meth:`set_multiplicity`, whose checks raise
        ``ValueError`` on a self-loop and ``KeyError`` on a missing
        endpoint."""
        if multiplicity <= 0:
            raise ValueError("multiplicity must be positive")
        old = self._adj.get(u, {}).get(v, 0)
        self.set_multiplicity(u, v, old + multiplicity)

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
        """Give the edge uv multiplicity ``m`` >= 0, keeping the edge
        count and the heavy-edge index, and touch u and v."""
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

    def _touch(self, v: int, nbrs: dict[int, int] | None = None) -> None:
        """Apply an edit at v to the kept structures; ``nbrs`` holds a
        deleted v's neighbours with their multiplicities.

        The view is dropped and the version moves on.  v, and a deleted
        v's neighbours, are recorded for the degree-2 paths' repair.  A
        deletion is recorded for the pendant-tree map's patch, and any
        other edit drops the map.  The verdict of v's component, if it
        has one, is dropped."""
        self._view = None
        self._version += 1
        if self._paths is not None:
            self._touched.add(v)
            self._touched.update(nbrs or ())
        if nbrs is None:
            self._pendant = None
        elif self._pendant is not None:
            self._dead.append((v, nbrs))
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
    def version(self) -> int:
        """A number that every edit changes: equal readings bracket a
        stretch in which the graph stood still."""
        return self._version

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

    def hanging_trees(self, vs: Iterable[int] | None = None, keep=(),
                      parent: dict[int, int] | None = None
                      ) -> dict[int, list[list[int]]]:
        """Strip leaves from the subgraph induced on ``vs`` (default: the
        whole graph) until none is left, and map each vertex left
        unstripped to the maximal trees hung from it.

        A leaf is a vertex outside ``keep`` with one neighbour left, joined
        to it by a single plain edge.  Each stripped vertex records only
        the vertex it hung from, in ``parent`` when a dict is passed.  A
        tree lists its root u first; u hangs from the key w by the plain
        edge wu, the tree's only edge to the rest of ``vs``.  The trees
        are simple and pairwise disjoint, so the map holds each vertex of
        ``vs`` once, as a key or in one tree.  The keys hold no leaf; a
        component stripped down to one vertex was a simple tree.
        """
        alive = set(self._adj if vs is None else vs)
        left = {v: sum(1 for u in self._adj[v] if u in alive) for v in alive}
        queue = deque(v for v in sorted(alive) if left[v] == 1 and v not in keep)
        if parent is None:
            parent = {}
        while queue:
            u = queue.popleft()
            ws = [w for w in self._adj[u] if w in alive]
            if len(ws) != 1 or self._adj[u][ws[0]] != 1:
                continue
            w = parent[u] = ws[0]
            alive.remove(u)
            left[w] -= 1
            if left[w] == 1 and w not in keep:
                queue.append(w)
        hung: dict[int, list[list[int]]] = {v: [] for v in alive}
        tree_of: dict[int, list[int]] = {}
        # u is stripped after everything below it, so walking the
        # stripping order backwards meets each root before its tree
        for u in reversed(parent):
            w = parent[u]
            if w in hung:  # u roots a tree hung from the key w
                tree_of[u] = [u]
                hung[w].append(tree_of[u])
            else:
                tree_of[u] = tree_of[w]
                tree_of[u].append(u)
        return hung

    def pendant_trees(self) -> dict[int, list[list[int]]]:
        """The maximal pendant trees of the graph, by the vertex x they
        hang from: one whole-graph :meth:`hanging_trees` pass.

        Each tree is a simple tree joined to the rest of the graph only
        by one plain edge to x, and no tree lies inside another.  Keys
        ascend, and each x maps to its trees as sorted lists ordered by
        minimum id.  A simple tree component keeps its last vertex as a
        key, with the branches around it; rule 1 deletes such a component
        before any reader of this map runs.

        The map is kept with each stripped vertex's parent.  When only
        vertices were deleted since, each a stripped vertex that left no
        surviving neighbour but its parent, or a core (unstripped) vertex
        that left none, the next ask patches the map: it takes them out
        of their trees and drops the emptied trees and keys.  In a
        component that is not a simple tree the stripped set, the core
        and every parent are unique, and such deletions keep the core and
        the parents of the rest, so the patch equals a rebuild.  A
        surviving vertex that lost part of its trees and has no core
        neighbour roots a simple tree component, whose last vertex hangs
        on the stripping order, so the map is rebuilt then, as after an
        edge change, a new vertex, or any other deletion.  The map is
        patched in place, so callers must not change it or hold it across
        an edit.
        """
        if self._pendant is None or (self._dead and not self._patch_pendant()):
            parent: dict[int, int] = {}
            self._pendant = {x: sorted(map(sorted, trees)) for x, trees
                             in sorted(self.hanging_trees(parent=parent).items())
                             if trees}
            self._parent, self._dead = parent, []
        return self._pendant

    def _patch_pendant(self) -> bool:
        """Take the vertices deleted since the last build or patch out of
        the pendant-tree map, or return False if a rebuild is due (see
        :meth:`pendant_trees`)."""
        adj, parent, pendant = self._adj, self._parent, self._pendant
        dead, self._dead = self._dead, []
        for v, nbrs in dead:
            up = parent.get(v)
            if any(w != up and w in adj for w in nbrs):
                return False
        key: dict[int, int] = {}  # stripped vertex -> the key it hangs from
        hit: set[int] = set()
        for v, _ in dead:
            if v not in parent:
                continue
            x, climbed = v, []
            while x in parent and x not in key:
                climbed.append(x)
                x = parent[x]
            x = key.get(x, x)
            key.update(dict.fromkeys(climbed, x))
            hit.add(x)
        if any(x in adj and all(w in parent for w in adj[x]) for x in hit):
            return False  # a simple tree component lost part of its trees
        gone = {v for v, _ in dead}
        for x in hit:
            trees = [t for t in ([u for u in t if u not in gone]
                                 for t in pendant[x]) if t]
            if trees:
                pendant[x] = sorted(trees)
            else:
                del pendant[x]
        for v in gone:
            parent.pop(v, None)
            pendant.pop(v, None)
        return True

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
        internal to at most one returned path.

        The first ask walks every chain; a later one repairs the list
        around the vertices touched since (the ends of a changed edge, a
        deleted vertex and its neighbours).  A path that holds no touched
        vertex keeps its chain vertices' neighbourhoods and its ends'
        degrees, so it stands with its kind and orientation.  A path that
        holds one is found through the index from chain vertices to
        paths, at the touched vertex or at a neighbour of it: a touched
        end's neighbour in the path is a chain vertex, itself touched if
        the edge between them changed or the end went.  Every new or
        changed path holds a touched vertex t too, so its chain holds t
        or a chain neighbour of t, and re-walking the chains through the
        touched vertices and their neighbours, each from its least
        vertex, gives the list a full walk would.  The list is repaired
        in place, so callers must not change it or hold it across an
        edit.
        """
        paths = self._paths
        if paths is None:
            self._touched = set()
            paths = self._paths = self._walk_degree2_paths()
        elif self._touched:
            self._repair_degree2_paths()
        return paths

    def _repair_degree2_paths(self) -> None:
        """Drop the kept paths through the touched vertices and put in
        the paths of the chains through them and their neighbours."""
        adj, path_of, paths = self._adj, self._path_of, self._paths
        touched, self._touched = self._touched, set()
        near = set(touched)
        for t in touched:
            near.update(adj.get(t, ()))
        for p in {path_of[v] for v in near if v in path_of}:
            del paths[bisect_left(paths, p)]
            for v in p.vertices:
                if path_of.get(v) is p:
                    del path_of[v]
        chain: set[int] = set()
        stack = [v for v in near if self._chain_vertex(v)]
        while stack:
            v = stack.pop()
            if v not in chain:
                chain.add(v)
                stack.extend(u for u in adj[v] if self._chain_vertex(u))
        for p in self._walk_degree2_paths(chain):
            insort(paths, p)

    def _chain_vertex(self, v: int) -> bool:
        """Is v a vertex with two neighbours, each by a single edge?"""
        nbrs = self._adj.get(v)
        return nbrs is not None and len(nbrs) == 2 and sum(nbrs.values()) == 2

    def _walk_degree2_paths(self, chain: set[int] | None = None
                            ) -> list[Deg2Path]:
        """The sorted paths of the chains whose vertices make up
        ``chain`` (default: every chain of the graph, with a fresh
        index), each chain vertex indexed to its path."""
        adj = self._adj
        if chain is None:
            self._path_of = {}
            chain = set(filter(self._chain_vertex, adj))
        path_of = self._path_of

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
        for s in sorted(chain):
            if s in path_of:
                continue
            lo, hi = sorted(adj[s], key=lambda y: (y not in chain, y))
            ahead = walk(s, lo)
            if ahead[-1] == s:  # the chain is a chordless cycle
                verts = inner = [s, *ahead[:-1]]
            else:
                verts = walk(s, hi)[::-1] + [s] + ahead
                inner = verts[1:-1]
                if verts[0] == verts[-1]:  # a cycle hanging at one anchor
                    verts.pop()
                elif rank(verts[0]) > rank(verts[-1]):
                    verts.reverse()
            tail = self.degree(verts[0]) > 2 and self.degree(verts[-1]) == 1
            p = Deg2Path(tuple(verts), "tail" if tail else "other")
            paths.append(p)
            path_of.update(dict.fromkeys(inner, p))
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

    def view(self):
        """The whole-graph :meth:`compact`, ``(ids, index, adj_masks)``,
        kept until the next edit.

        Positions ascend with ids, so the view of a vertex subset is a
        mask over it, and the components of that mask come in the order
        of their minimum ids.  Callers must not change it.
        """
        if self._view is None:
            self._view = self.compact()
        return self._view

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiGraph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.edge_count})"
