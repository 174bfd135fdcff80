"""Dinic max-flow and minimum vertex separators (Menger via vertex split)."""

from __future__ import annotations

from collections import deque

from .multigraph import MultiGraph

INF = 1 << 30


class Dinic:
    """Integer max-flow.  Nodes are 0..n-1; parallel arcs allowed."""

    def __init__(self, n: int):
        self.n = n
        self.heads: list[list[int]] = [[] for _ in range(n)]  # edge indices
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v; returns its edge index (reverse is index ^ 1)."""
        idx = len(self.to)
        self.heads[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.heads[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _levels(self, s: int) -> list[int]:
        """BFS depth of every node from s over arcs with spare capacity;
        -1 marks a node the residual network does not reach."""
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for idx in self.heads[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level

    def _push(self, s, t, level, it):
        """Push one augmenting path along the level graph; return its flow.

        Depth-first over an explicit stack of arcs, so the path length is
        not bounded by the recursion limit; ``it[u]`` is the next arc of u
        to try, and a dead end retreats one arc and moves its tail past it.
        """
        path: list[int] = []
        u = s
        while u != t:
            heads = self.heads[u]
            while it[u] < len(heads):
                idx = heads[it[u]]
                if self.cap[idx] > 0 and level[self.to[idx]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
                continue
            path.append(idx)
            u = self.to[idx]
        f = min((self.cap[idx] for idx in path), default=INF)
        for idx in path:
            self.cap[idx] -= f
            self.cap[idx ^ 1] += f
        return f

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (level := self._levels(s))[t] >= 0:
            it = [0] * self.n
            while True:
                f = self._push(s, t, level, it)
                if not f:
                    break
                total += f
        return total

    def flow_on(self, idx: int) -> int:
        """Flow carried by the arc added as ``idx`` (its reverse capacity)."""
        return self.cap[idx ^ 1]

    def residual_reachable(self, s: int) -> set[int]:
        return {v for v, d in enumerate(self._levels(s)) if d >= 0}


def min_vertex_separator(g: MultiGraph, x: int, y: int) -> list[int]:
    """Minimum x-y vertex separator avoiding x and y.

    Works on the underlying simple graph and requires x and y
    nonadjacent.  Each other vertex is split into an in/out pair of unit
    capacity, so the max-flow value equals the separator size and the
    saturated split arcs on the residual boundary name the separator
    vertices.
    """
    if g.has_edge(x, y):
        raise ValueError("adjacent endpoints admit no separator")
    verts = g.vertices
    v_in = {v: 2 * i for i, v in enumerate(verts)}
    v_out = {v: 2 * i + 1 for i, v in enumerate(verts)}
    net = Dinic(2 * len(verts))
    for v in verts:
        net.add_edge(v_in[v], v_out[v], 1 if v not in (x, y) else INF)
    for u, v, _m in g.edges():
        net.add_edge(v_out[u], v_in[v], INF)
        net.add_edge(v_out[v], v_in[u], INF)
    net.max_flow(v_out[x], v_in[y])
    reach = net.residual_reachable(v_out[x])
    cut = [v for v in verts
           if v not in (x, y) and v_in[v] in reach and v_out[v] not in reach]
    return sorted(cut)
