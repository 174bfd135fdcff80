"""Seeded corpora of the three benchmark workloads.

Every instance is built here as a plain edge list on labels 1..n, with the
deletion set it was built around when one is known, and serialized to the
instance file format.  ``pitvd`` itself contributes only
``cli.random_instance``, the generator of its own verification corpus.

Instance shapes and why they load the layers they do:

* ``planted-interval`` (k = 1): one dense unit-interval component of 28
  vertices (centres 0.12 apart, so cliques of about eight) and a planted
  vertex with edges to its 8th and 22nd vertices, plus a random tree and
  a unit-interval component that rule 1 drops.  The planted vertex is
  numbered first: the exact bootstrap branches in label order and finds
  it in three recognitions, while the obstructions through it give a base
  set of about 16 vertices, against which rule 14's marking scan (cubic in
  the base-set size) does most of the work.  Attachments near an end of
  the component let the base set swallow it whole and skip marking, so
  they are fixed in its middle.
* ``planted-tree`` (k = 2): two random trees, each grown from a spine of
  ``HOLE_SPAN`` edges, two unit-interval components of 3-4 vertices (a
  triangle or two), and two planted vertices, each joined to both ends of
  one spine (closing a hole too long for the small-obstruction family)
  and to one of the small components.  The planted vertices are numbered
  last.  Each joined component hosts a claw and a triangle, so the exact
  bootstrap branches over whole components and re-runs the whole-graph
  recognizer at every node, while the cliques are too small for marking
  to cost much.  The fixed spine keeps the search about the same size
  from one instance to the next.
* ``small-mixed``: ``cli.random_instance`` graphs (n <= 12, k <= 4, some
  parallel edges) plus small instances shaped so that each of rules 8-14
  fires, each built around a single hub whose deletion solves it (k = 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("planted-interval", "planted-tree", "small-mixed")

#: instances per corpus; fixed, so that every seed attempts the same work
PLANTED_INTERVAL_COUNT = 10
PLANTED_TREE_COUNT = 30
RANDOM_COUNT = 600
RULE_SHAPED_COPIES = 3

#: vertices of each tree of a planted-tree instance, and edges of its spine
TREE_SIZE = 22
HOLE_SPAN = 5


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str            # "planted", "rule" or "random"
    text: str            # instance file text
    n: int
    k: int
    solution: tuple[int, ...] | None   # deletion set known by construction


class _Builder:
    """Edge list on labels 1..n, grown one vertex at a time."""

    def __init__(self) -> None:
        self.n = 0
        self.edges: list[tuple[int, int, int]] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n

    def vertices(self, count: int) -> list[int]:
        return [self.vertex() for _ in range(count)]

    def edge(self, u: int, v: int, mult: int = 1) -> None:
        self.edges.append((u, v, mult))

    def unit_interval(self, centres) -> list[int]:
        """Unit interval graph on the given sorted centres."""
        vs = self.vertices(len(centres))
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if centres[j] - centres[i] > 1.0:
                    break
                self.edge(vs[i], vs[j])
        return vs

    def tree(self, rng: random.Random, size: int) -> list[int]:
        """Random recursive tree."""
        vs = self.vertices(size)
        for i in range(1, size):
            self.edge(vs[rng.randrange(i)], vs[i])
        return vs

    def clique(self, size: int) -> list[int]:
        vs = self.vertices(size)
        for i, u in enumerate(vs):
            for w in vs[i + 1:]:
                self.edge(u, w)
        return vs

    def strip(self, blocks: int) -> list[int]:
        """Squared path whose clique partition is ``blocks`` triangles."""
        vs = self.vertices(3 * blocks)
        for i in range(len(vs) - 1):
            self.edge(vs[i], vs[i + 1])
        for i in range(len(vs) - 2):
            self.edge(vs[i], vs[i + 2])
        return vs

    def petal_hub(self, petals: int) -> int:
        hub = self.vertex()
        for _ in range(petals):
            x, y = self.vertices(2)
            self.edge(hub, x)
            self.edge(hub, y)
            self.edge(x, y)
        return hub

    def instance(self, name: str, kind: str, k: int, solution) -> Instance:
        lines = [f"p pitvd {self.n} {len(self.edges)} {k}"]
        lines.extend(f"e {u} {v} {m}" for u, v, m in self.edges)
        return Instance(name, kind, "\n".join(lines) + "\n", self.n, k,
                        None if solution is None else tuple(sorted(solution)))


# ---------------------------------------------------------------------------
# planted workloads
# ---------------------------------------------------------------------------

def planted_interval(rng: random.Random, name: str) -> Instance:
    b = _Builder()
    x = b.vertex()
    body = b.unit_interval(sorted(0.12 * i + rng.uniform(-0.05, 0.05)
                                  for i in range(28)))
    b.edge(x, body[7])
    b.edge(x, body[21])
    b.tree(rng, rng.randint(10, 20))
    b.unit_interval(sorted(rng.uniform(0.0, 3.0) for _ in range(10)))
    return b.instance(name, "planted", 1, [x])


def planted_tree(rng: random.Random, name: str) -> Instance:
    b = _Builder()
    parts = []
    for _ in range(2):
        spine = b.vertices(HOLE_SPAN + 1)
        for u, w in zip(spine, spine[1:]):
            b.edge(u, w)
        grown = list(spine)
        for v in b.vertices(TREE_SIZE - len(spine)):
            b.edge(rng.choice(grown), v)
            grown.append(v)
        centres, c = [], 0.0
        for _ in range(rng.randint(3, 4)):
            centres.append(c)
            c += rng.uniform(0.3, 0.45)
        parts.append(((spine[0], spine[-1]), b.unit_interval(centres)))
    planted = []
    for ends, small in parts:
        x = b.vertex()
        for u in ends:
            b.edge(x, u)
        b.edge(x, rng.choice(small))
        planted.append(x)
    return b.instance(name, "planted", 2, planted)


# ---------------------------------------------------------------------------
# rule-shaped instances (each solved by deleting its hub, k = 1)
# ---------------------------------------------------------------------------

def _rule8(b: _Builder, rng: random.Random) -> int:
    # an 8-cycle through the hub, too long for the obstruction family,
    # whose chain carries three consecutive hangers: the middle hook is bad
    hub = b.petal_hub(rng.randint(3, 4))
    chain = b.vertices(6)
    b.edge(hub, chain[0])
    b.edge(hub, chain[-1])
    for x, y in zip(chain, chain[1:]):
        b.edge(x, y)
    lo = rng.choice([1, 2])
    for pos in range(lo, lo + 3):
        for _ in range(rng.randint(1, 2)):
            b.edge(chain[pos], b.vertex())
    return hub


def _rule9(b: _Builder, rng: random.Random) -> int:
    return b.petal_hub(7 + rng.randint(0, 2))     # 4k+3 petals and more


def _rule10(b: _Builder, rng: random.Random) -> int:
    # the doubled edge pins both hubs into the base set; each leaf is a
    # one-edge contact component seen from either of them
    a, c = b.vertices(2)
    b.edge(a, c, 2)
    for _ in range(rng.randint(19, 24)):
        leaf = b.vertex()
        b.edge(a, leaf)
        b.edge(c, leaf)
    return a


def _rule11(b: _Builder, rng: random.Random) -> int:
    hub = b.vertex()
    for _ in range(rng.randint(4, 6)):
        t = b.clique(3)
        b.edge(hub, t[0])
    return hub


def _rule12(b: _Builder, rng: random.Random) -> int:
    hub = b.vertex()
    for v in b.strip(rng.randint(12, 14))[:33]:
        b.edge(hub, v)
    return hub


def _rule13(b: _Builder, rng: random.Random) -> int:
    hub = b.vertex()
    vs = b.strip(rng.randint(22, 24))
    b.edge(hub, vs[0])
    b.edge(hub, vs[-1])
    return hub


def _rule14(b: _Builder, rng: random.Random) -> int:
    # an oversized clique, half of it seen by the hub, and a doubled
    # pendant edge that pins the hub into the base set
    hub = b.vertex()
    for v in b.clique(rng.randint(55, 60))[::2]:
        b.edge(hub, v)
    b.edge(hub, b.vertex(), 2)
    return hub


RULE_SHAPES = {"8": _rule8, "9": _rule9, "10": _rule10, "11": _rule11,
               "12": _rule12, "13": _rule13, "14": _rule14}


def rule_shaped(rng: random.Random, rule: str, name: str) -> Instance:
    b = _Builder()
    hub = RULE_SHAPES[rule](b, rng)
    return b.instance(name, "rule", 1, [hub])


def random_verification(rng: random.Random, name: str, cli) -> Instance:
    g, k = cli.random_instance(rng, 12, 4)
    b = _Builder()
    b.n = g.n                 # random_instance numbers its vertices 1..n
    b.edges = list(g.edges())
    return b.instance(name, "random", k, None)


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, cli) -> list[Instance]:
    """The corpus of ``workload`` for ``seed``; same seed, same corpus."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "planted-interval":
        return [planted_interval(rng, f"pi{i:02d}")
                for i in range(PLANTED_INTERVAL_COUNT)]
    if workload == "planted-tree":
        return [planted_tree(rng, f"pt{i:02d}")
                for i in range(PLANTED_TREE_COUNT)]
    if workload == "small-mixed":
        out = [random_verification(rng, f"ri{i:03d}", cli)
               for i in range(RANDOM_COUNT)]
        for rule in RULE_SHAPES:
            out.extend(rule_shaped(rng, rule, f"r{rule}-{j}")
                       for j in range(RULE_SHAPED_COPIES))
        return out
    raise ValueError(f"unknown workload {workload!r}")
