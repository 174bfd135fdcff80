"""Self-tests of the benchmark's independent checker.

Run from the repository root with ``python -m pytest kbench``.
"""

import pytest

import checker


def graph(n: int, edges):
    """Graph on 1..n from (u, v) or (u, v, multiplicity) pairs."""
    lines = [f"p pitvd {n} {len(edges)} 0"]
    for e in edges:
        u, v, m = e if len(e) == 3 else (*e, 1)
        lines.append(f"e {u} {v} {m}")
    return checker.read_instance("\n".join(lines) + "\n")[0]


TRIANGLE = [(1, 2), (2, 3), (1, 3)]

UNCLEAN = {
    "double edge": graph(3, [(1, 2, 2), (2, 3)]),
    "net": graph(6, TRIANGLE + [(1, 4), (2, 5), (3, 6)]),
    "tent": graph(6, TRIANGLE + [(1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]),
    "hole": graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    "claw+triangle": graph(5, TRIANGLE + [(1, 4), (1, 5)]),
}

CLEAN = {
    "path": graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
    "tree": graph(7, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (6, 7)]),
    # centres 0, 0.5, 0.9, 1.6, 2.0, 2.4: adjacent when at most 1 apart
    "unit interval": graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
                               (4, 6), (5, 6)]),
    "tree beside a triangle": graph(7, TRIANGLE + [(4, 5), (4, 6), (4, 7)]),
}


@pytest.mark.parametrize("name", sorted(UNCLEAN))
def test_rejects(name):
    assert not checker.is_clean(UNCLEAN[name])


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_accepts(name):
    assert checker.is_clean(CLEAN[name])


def test_duplicate_edge_lines_add_up():
    g, k = checker.read_instance("p pitvd 2 2 3\ne 1 2 1\ne 1 2 1\n")
    assert k == 3 and g[1][2]["mult"] == 2 and not checker.is_clean(g)


def test_brute_verdict_and_solutions():
    hole = UNCLEAN["hole"]
    assert not checker.brute_verdict(hole, 0)
    assert checker.brute_verdict(hole, 1) and checker.is_solution(hole, [3])
    two_holes = graph(8, [(1, 2), (2, 3), (3, 4), (4, 1),
                          (5, 6), (6, 7), (7, 8), (8, 5)])
    assert not checker.brute_verdict(two_holes, 1)
    assert not checker.is_solution(two_holes, [1])
    assert checker.brute_verdict(two_holes, 2)
    assert checker.is_solution(two_holes, [1, 5])
