import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations

import pytest

import pitvd
from pitvd.cliques import clique_path
from pitvd.marking import eta, mark_clique, unmarked_vertices
from pitvd.multigraph import MultiGraph

from conftest import unit_interval_graph


def big_clique(n, hub_edges=()):
    g = MultiGraph()
    ids = [g.add_vertex() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(ids[i], ids[j])
    for h, targets in hub_edges:
        g.ensure_vertex(h)
        for t in targets:
            g.add_edge(h, t)
    return g, ids


def test_empty_base_set_marks_extremes_only():
    k = 1
    g, ids = big_clique(20)
    path = clique_path(g, ids)
    marked = mark_clique(g, k, [], path, 0)
    assert marked == set(ids[:k + 3]) | set(ids[-(k + 3):])


def test_small_clique_fully_marked():
    k = 2
    g, ids = big_clique(2 * (k + 3))
    path = clique_path(g, ids)
    assert mark_clique(g, k, [], path, 0) == set(ids)


def test_small_clique_with_base_set_fully_marked():
    # hub n splits K, hub n + 1 has no neighbor in it
    k = 2
    n = 2 * (k + 3)
    g, ids = big_clique(n, hub_edges=[(n, range(0, n, 3)), (n + 1, [])])
    path = clique_path(g, ids)
    assert mark_clique(g, k, [n, n + 1], path, 0) == set(ids)
    assert naive_marks(g, k, [n, n + 1], path, 0) == set(ids)


def test_single_hub_signature_split():
    # hub 30 adjacent to the odd half of a 16-clique: the (Z={hub}, f) pools
    # split K in two, and each pool contributes its own first/last k+3 runs
    k = 0
    n = 16
    odd = list(range(1, n, 2))
    g, ids = big_clique(n, hub_edges=[(n, odd)])
    path = clique_path(g, [v for v in ids])
    marked = mark_clique(g, k, [n], path, 0)
    inside = [v for v in path.order if v in set(odd)]
    outside = [v for v in path.order if v not in set(odd)]
    expect = set()
    for pool in (list(path.order), inside, outside):
        expect.update(pool[:k + 3])
        expect.update(pool[-(k + 3):])
    assert marked == expect


def naive_marks(g, k, s, path, idx):
    kq = list(path.cliques[idx])
    out = set()
    for size in range(4):
        for z in combinations(sorted(s), size):
            for pattern in range(1 << size):
                want = {z[i]: bool(pattern >> i & 1) for i in range(size)}
                pool = [v for v in kq
                        if all(g.has_edge(v, x) == w for x, w in want.items())]
                out.update(pool[:min(k + 3, len(pool))])
                out.update(pool[max(0, len(pool) - (k + 3)):])
    sides = []
    if idx > 0:
        sides.append(("pv", list(path.cliques[idx - 1])))
    if idx + 1 < len(path.cliques):
        sides.append(("nt", list(path.cliques[idx + 1])))
    for x in sorted(s):
        for tag, other in sides:
            nbr = [y for y in other if g.has_edge(x, y)]
            non = [y for y in other if not g.has_edge(x, y)]
            if tag == "pv":
                for y in non[-(k + 1):]:
                    pool = [v for v in kq if g.has_edge(v, x) and g.has_edge(v, y)]
                    out.update(pool[max(0, len(pool) - (k + 3)):])
                for y in nbr[-(k + 1):]:
                    pool = [v for v in kq if g.has_edge(v, y) and not g.has_edge(v, x)]
                    out.update(pool[max(0, len(pool) - (k + 3)):])
                for y in nbr[:k + 1]:
                    pool = [v for v in kq if g.has_edge(v, x) and not g.has_edge(v, y)]
                    out.update(pool[:k + 1])
            else:
                for y in non[:k + 1]:
                    pool = [v for v in kq if g.has_edge(v, x) and g.has_edge(v, y)]
                    out.update(pool[:k + 3])
                for y in nbr[:k + 3]:
                    pool = [v for v in kq if g.has_edge(v, y) and not g.has_edge(v, x)]
                    out.update(pool[:k + 3])
                for y in nbr[-(k + 1):]:
                    pool = [v for v in kq if g.has_edge(v, x) and not g.has_edge(v, y)]
                    out.update(pool[max(0, len(pool) - (k + 3)):])
    return out


@pytest.mark.parametrize("seed", range(25))
def test_marks_match_naive_rescan(seed):
    rng = random.Random(4400 + seed)
    g = unit_interval_graph(rng, rng.randint(8, 24), rng.uniform(1.5, 4.0))
    comp = g.components()[0]
    hub_count = rng.randint(1, 3)
    hubs = []
    for _ in range(hub_count):
        h = g.add_vertex()
        hubs.append(h)
        for t in rng.sample(comp, rng.randint(1, len(comp))):
            g.add_edge(h, t)
    path = clique_path(g, comp)
    k = rng.randint(0, 3)
    for idx in range(len(path.cliques)):
        assert mark_clique(g, k, hubs, path, idx) == naive_marks(g, k, hubs, path, idx)


def test_marks_match_naive_rescan_on_wide_cliques():
    # cliques wider than 2(k+3) take the signature-bucket path; hubs tied
    # to an interval of the umbrella order, or to nothing, leave some
    # cliques with base vertices that have no neighbor in them
    checked = with_idle_hub = 0
    for seed in range(40):
        rng = random.Random(7300 + seed)
        k = rng.randint(0, 3)
        g = unit_interval_graph(rng, rng.randint(2 * (k + 3) + 1, 60),
                                rng.uniform(0.5, 2.5))
        comp = g.components()[0]
        path = clique_path(g, comp)
        order = path.order
        hubs = []
        for _ in range(rng.randint(4, 8)):
            h = g.add_vertex()
            hubs.append(h)
            kind = rng.randrange(3)
            if kind == 0:
                targets = rng.sample(order, rng.randint(1, len(order)))
            elif kind == 1:
                lo = rng.randrange(len(order))
                targets = order[lo:lo + rng.randint(1, 12)]
            else:
                targets = ()
            for t in targets:
                g.add_edge(h, t)
        for idx, kq in enumerate(path.cliques):
            if len(kq) <= 2 * (k + 3):
                continue
            assert mark_clique(g, k, hubs, path, idx) == \
                naive_marks(g, k, hubs, path, idx), (seed, idx)
            checked += 1
            if any(not any(g.has_edge(h, v) for v in kq) for h in hubs):
                with_idle_hub += 1
    assert checked >= 40 and with_idle_hub >= 20, (checked, with_idle_hub)


def flanked_clique(rng, k):
    """Three cliques A, K, B in a row, K much wider than 2(k+3), and one
    hub x.  Each flank vertex sees a run of K from the end facing it to
    somewhere mid-K (the far ends of A and B see none of K), and x sees a
    random share of the component, so its neighbours and non-neighbours
    in a flank select pools of K that start at many different places."""
    g = MultiGraph()
    a, kq, b = ([g.add_vertex() for _ in range(size)] for size in
                (rng.randint(k + 4, 2 * k + 8), rng.randint(8 * k + 24, 12 * k + 40),
                 rng.randint(k + 4, 2 * k + 8)))
    for clique in (a, kq, b):
        for u, v in combinations(clique, 2):
            g.add_edge(u, v)
    for flank, ahead in ((a, kq), (b[::-1], kq[::-1])):
        reach = sorted(rng.randint(1, len(kq) - 1) for _ in flank)
        reach[0] = 0
        for u, t in zip(flank, reach):
            for v in ahead[:t]:
                g.add_edge(u, v)
    comp = a + kq + b
    x = g.add_vertex()
    share = rng.uniform(0.1, 0.9)
    for v in comp:
        if rng.random() < share:
            g.add_edge(x, v)
    return g, comp, x


@pytest.mark.parametrize("seed", range(20))
def test_marks_match_naive_rescan_between_flanking_cliques(seed):
    # every width of groups 2-4, on either flank, changes the marks of
    # some seed here
    rng = random.Random(9100 + seed)
    k = rng.randint(0, 2)
    g, comp, x = flanked_clique(rng, k)
    path = clique_path(g, comp)
    assert len(path.cliques) == 3
    for idx in range(3):
        assert mark_clique(g, k, [x], path, idx) == naive_marks(g, k, [x], path, idx)


def test_mark_budget_check_survives_python_O():
    script = textwrap.dedent("""
        from itertools import combinations
        import pitvd.marking as marking
        from pitvd.cliques import clique_path
        from pitvd.multigraph import MultiGraph
        assert False, "asserts must be stripped"
        g = MultiGraph.from_edges(combinations(range(20), 2))
        marking.eta = lambda k, s_size: 0
        marking.mark_clique(g, 0, [], clique_path(g, list(range(20))), 0)
    """)
    src = os.path.dirname(os.path.dirname(pitvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "AssertionError: mark budget exceeded" in done.stderr, done.stderr


@pytest.mark.parametrize("seed", range(15))
def test_eta_bound_random(seed):
    rng = random.Random(5600 + seed)
    g = unit_interval_graph(rng, rng.randint(10, 30), rng.uniform(1.2, 3.0))
    comp = g.components()[0]
    hubs = []
    for _ in range(rng.randint(0, 3)):
        h = g.add_vertex()
        hubs.append(h)
        for t in rng.sample(comp, rng.randint(1, len(comp))):
            g.add_edge(h, t)
    path = clique_path(g, comp)
    k = rng.randint(0, 4)
    for idx in range(len(path.cliques)):
        assert len(mark_clique(g, k, hubs, path, idx)) <= eta(k, len(hubs))


def test_unmarked_giant_clique_shrinks():
    k = 1
    g, ids = big_clique(60, hub_edges=[(60, list(range(0, 60, 3)))])
    path = clique_path(g, ids)
    survivors = set(ids) - set(unmarked_vertices(g, k, [60], path))
    assert len(survivors) <= eta(k, 1)
    assert len(survivors) < 60


def test_fully_marked_clique_has_no_unmarked():
    k = 3
    g, ids = big_clique(6)
    path = clique_path(g, ids)
    assert unmarked_vertices(g, k, [], path) == []
