"""Instance files, traces, and the command-line front end."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest
from conftest import (parse_by_fields, planted_interval_graph,
                      random_multigraph, tree_with_triangles)
from mutants import killer_instances

from pitvd import cli
from pitvd.audit import audit_violations
from pitvd.cli import (MAX_VERTICES, ParseError, load_trace, main, parse,
                       serialize, trace_lines)
from pitvd.driver import kernelize, replay
from pitvd.exact import decide
from pitvd.multigraph import MultiGraph
from pitvd.recognition import is_pitg
from pitvd.rules import RULES


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_triangle():
    g, k = parse("p pitvd 3 3 1\ne 1 2 1\ne 2 3 1\ne 1 3 1\n")
    assert k == 1
    assert g.vertices == [1, 2, 3]
    assert sorted(g.edges()) == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError):
        parse("p pitvd 2 1 0\ne 1 1 1\n")


def test_parse_duplicate_records_sum():
    g, _ = parse("p pitvd 2 2 0\ne 1 2 1\ne 1 2 1\n")
    assert g.multiplicity(1, 2) == 2


def test_parse_label_out_of_range():
    with pytest.raises(ParseError):
        parse("p pitvd 3 1 0\ne 1 4 1\n")


def test_parse_isolated_vertices_from_header():
    g, k = parse("p pitvd 5 1 2\ne 2 4 1\n")
    assert g.n == 5
    assert g.degree(1) == 0


def count_header_vertices(monkeypatch) -> list[int]:
    """Make ``MultiGraph.ensure_vertex`` record its calls instead of
    allocating, and fail once it passes the header cap."""
    calls: list[int] = []

    def ensure_vertex(self, v):
        calls.append(v)
        if len(calls) > MAX_VERTICES:
            raise MemoryError("header vertices created past the cap")

    monkeypatch.setattr(MultiGraph, "ensure_vertex", ensure_vertex)
    return calls


def test_parse_rejects_huge_header_before_allocating(monkeypatch):
    calls = count_header_vertices(monkeypatch)
    for n in (MAX_VERTICES + 1, 10**9):
        with pytest.raises(ParseError, match="exceed"):
            parse(f"p pitvd {n} 0 0\n")
    assert calls == []
    parse(f"p pitvd {MAX_VERTICES} 0 0\n")  # the cap itself is allowed
    assert len(calls) == MAX_VERTICES


def test_parse_comments_and_blanks_ignored():
    g, k = parse("c hello\n\np pitvd 2 1 0\nc mid\ne 1 2 3\n\n")
    assert g.multiplicity(1, 2) == 3


#: malformed instance texts, each with the whole message it must raise
MALFORMED = {
    "e 1 2 1\n": "line 1: edge before problem line",
    "p pitvd 2 2 0\ne 1 2 1\n": "header announces 2 edge records, found 1",
    "p pitvd 2 1 0\np pitvd 2 1 0\ne 1 2 1\n": "line 2: second problem line",
    "p pitvd 2 1 -1\ne 1 2 1\n": "line 1: negative header field",
    "p pitvd 2 1 0\ne 1 2 0\n": "line 2: multiplicity 0 < 1",
    "p pitvd 2 1 0\nq 1 2 1\n": "line 2: unknown record 'q'",
    "p pitvd two 1 0\ne 1 2 1\n": "line 1: non-integer header field",
    "p pitvd 2 1 0\ne 1 2 1 1\n": "line 2: expected 'e u v mult'",
    "c no problem line\n": "missing problem line",
    # spellings that int() reads but an instance file may not hold
    "p pitvd 2 1 1_0\ne 1 2 1\n": "line 1: non-integer header field",
    "p pitvd +2 1 0\ne 1 2 1\n": "line 1: non-integer header field",
    # Arabic-Indic digit two
    "p pitvd \u0662 1 0\ne 1 2 1\n": "line 1: non-integer header field",
    "p pitvd 2 1 0\ne 1 2 1_0\n": "line 2: non-integer edge field",
    "p pitvd 2 1 0\ne +1 2 1\n": "line 2: non-integer edge field",
    "p pitvd 2 1 0\ne 1 \u0662 1\n": "line 2: non-integer edge field",
    # a digit to str.isdigit() that int() does not read
    "p pitvd 2 1 0\ne 1 \u00b2 1\n": "line 2: non-integer edge field",
}

#: a field of more digits than ``int`` converts, where the interpreter
#: limits them (4,300 digits by default)
LONG_FIELD = "1" * 5000
DIGITS_LIMITED = (0 < getattr(sys, "get_int_max_str_digits", lambda: 0)()
                  < len(LONG_FIELD))
if DIGITS_LIMITED:
    MALFORMED[f"p pitvd 2 1 0\ne 1 2 {LONG_FIELD}\n"] = (
        "line 2: non-integer edge field")
    MALFORMED[f"p pitvd 2 1 {LONG_FIELD}\ne 1 2 1\n"] = (
        "line 1: non-integer header field")


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError, match=f"^{re.escape(MALFORMED[text])}$"):
        parse(text)


_ODD_TOKENS = ("+3", "1_0", "-0", "-2", "\u0662", "\u00b2", "\uff10")
_ODD_SEPARATORS = ("\t", "\u00a0", "\u2003")


def _mutated(rng, text: str) -> str:
    """``text`` with up to three random edits, each on one random line: a
    token replaced by an odd spelling, a separator by other whitespace, a
    field added or dropped, a form feed put in, or a comment line of
    non-ASCII text put before it; then LF or CRLF line endings."""
    lines = text.splitlines()
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines))
        fields = lines[i].split(" ")
        edit = rng.randrange(6)
        if edit == 0:
            fields[rng.randrange(len(fields))] = rng.choice(_ODD_TOKENS)
        elif edit == 1:
            at = rng.randrange(len(fields) + 1)
            fields.insert(at, str(rng.randrange(10)))
        elif edit == 2 and len(fields) > 1:
            del fields[rng.randrange(len(fields))]
        elif edit == 3:
            fields.insert(rng.randrange(len(fields) + 1), "\f")
        elif edit == 4:
            lines.insert(i, "c h\u00e9 \u2211 \u65e5\u672c")
            continue
        if edit == 5 and len(fields) > 1:
            j = rng.randrange(1, len(fields))
            lines[i] = (" ".join(fields[:j]) + rng.choice(_ODD_SEPARATORS)
                        + " ".join(fields[j:]))
        else:
            lines[i] = " ".join(fields)
    return rng.choice(("\n", "\r\n")).join(lines) + "\n"


def _outcome(read, text: str):
    """What ``read`` makes of ``text``: the graph's vertices and edges with
    the budget, or the message of its ``ParseError``."""
    try:
        g, k = read(text)
    except ParseError as exc:
        return str(exc)
    return g.vertices, list(g.edges()), k


def test_parse_matches_the_field_by_field_oracle():
    """Seeded valid instance texts, and the same texts with odd tokens,
    odd whitespace, extra or missing fields, form feeds, CRLF endings
    and non-ASCII comment lines: ``parse`` gives the same graph and
    budget as ``conftest.parse_by_fields``, or a ``ParseError`` with the
    same message."""
    rng = random.Random(2526)
    outcomes = Counter()
    for trial in range(1500):
        g = random_multigraph(rng, rng.randint(1, 10), 0.5, 0.2)
        text = serialize(g, rng.randint(0, 4))
        if trial % 5:
            text = _mutated(rng, text)
        want = _outcome(parse_by_fields, text)
        assert _outcome(parse, text) == want, repr(text)
        if isinstance(want, str):
            outcomes[want.split(": ")[-1]] += 1
        else:
            outcomes["parsed" if text.isascii() else "parsed, not ASCII"] += 1
    assert outcomes["parsed"] >= 300, outcomes
    assert outcomes["parsed, not ASCII"] >= 20, outcomes
    assert outcomes["non-integer edge field"] >= 50, outcomes
    assert outcomes["expected 'e u v mult'"] >= 50, outcomes


def test_serialize_relabels_to_dense_range():
    g = MultiGraph()
    for v in (5, 9, 12):
        g.ensure_vertex(v)
    g.add_edge(5, 12, 2)
    text = serialize(g, 3)
    assert text == "p pitvd 3 1 3\ne 1 3 2\n"


def test_serialize_rows_ascend():
    """The edge rows come out sorted by label pair, whatever the ids."""
    rng = random.Random(405)
    for _ in range(25):
        g = MultiGraph()
        ids = rng.sample(range(1, 100), rng.randint(2, 12))
        for v in ids:
            g.ensure_vertex(v)
        for u, v in itertools.combinations(ids, 2):
            if rng.random() < 0.4:
                g.add_edge(u, v, rng.randint(1, 3))
        rows = [tuple(map(int, line.split()[1:]))
                for line in serialize(g, 0).splitlines()[1:]]
        assert rows == sorted(rows)
        assert all(u < v for u, v, _ in rows)


def test_round_trip_random_instances():
    rng = random.Random(404)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 10), 0.4, 0.2)
        k = rng.randint(0, 4)
        text = serialize(g, k)
        g2, k2 = parse(text)
        assert k2 == k
        assert serialize(g2, k2) == text


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_text_round_trips_and_replays():
    rng = random.Random(77)
    for _ in range(10):
        g = random_multigraph(rng, rng.randint(4, 9), 0.4, 0.2)
        res = kernelize(g, 2)
        loaded = load_trace(trace_lines(res.trace))
        assert loaded == res.trace
        h, k2 = replay(g, 2, loaded)
        assert k2 == res.k
        assert serialize(h, k2) == serialize(res.graph, res.k)


def test_load_trace_skips_blank_lines():
    g = random_multigraph(random.Random(78), 8, 0.4, 0.2)
    trace = kernelize(g, 2).trace
    assert trace
    text = "\n" + trace_lines(trace).replace("\n", "\n  \n")
    assert load_trace(text) == trace


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert main(["generate", "--n", "9", "--density", "0.4",
                     "--seed", "123", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "8b4246bfe3fc875788f9f9599d7c37439b9d8474c3c833fa280367d16e4bcaf2")


def test_generate_density_zero_is_edgeless(tmp_path):
    out = tmp_path / "e.txt"
    main(["generate", "--n", "6", "--density", "0", "--seed", "1",
          "-o", str(out)])
    g, _ = parse(out.read_text())
    assert g.n == 6 and g.edge_count == 0


def test_generate_rate_one_doubles_everything(tmp_path):
    out = tmp_path / "d.txt"
    main(["generate", "--n", "8", "--density", "0.5", "--double-rate", "1",
          "--seed", "2", "-o", str(out)])
    g, _ = parse(out.read_text())
    assert g.edge_count > 0
    assert all(m == 2 for _, _, m in g.edges())


def test_kernelize_clean_instance_empties(tmp_path):
    text = "p pitvd 4 3 0\ne 1 2 1\ne 2 3 1\ne 3 4 1\n"
    out = tmp_path / "k.txt"
    code = main(["kernelize", write(tmp_path, "in.txt", text),
                 "-o", str(out)])
    assert code == 0
    assert out.read_text() == "p pitvd 0 0 0\n"


def test_kernelize_two_holes_one_budget_says_no(tmp_path):
    g = MultiGraph()
    for v in range(14):
        g.ensure_vertex(v)
    for c in (range(7), range(7, 14)):
        c = list(c)
        for i, u in enumerate(c):
            g.add_edge(u, c[(i + 1) % 7], 1)
    path = write(tmp_path, "no.txt", serialize(g, 1))
    assert main(["kernelize", path]) == 20


def test_kernelize_warns_when_the_size_bound_is_void(tmp_path, capsys,
                                                     monkeypatch):
    """A run whose base set came from the greedy fallback still writes its
    kernel (exit 0) and says on stderr that the size bound is void; the
    instance is a no-instance, which the default node limit decides in
    seconds.  A run with exact base sets does not warn."""
    monkeypatch.setattr(cli, "kernelize",
                        lambda g, k: kernelize(g, k, node_limit=2000))
    for g, k, warned in ((*tree_with_triangles(random.Random(3)), True),
                         (*planted_interval_graph(random.Random(0)), False)):
        path = write(tmp_path, "in.txt", serialize(g, k))
        assert main(["kernelize", path, "-o", str(tmp_path / "k.txt")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == warned
        assert ("size bound" in err) == warned


def test_kernelize_rejects_malformed_file(tmp_path):
    assert main(["kernelize", write(tmp_path, "bad.txt",
                                    "p pitvd 2 1 0\ne 1 1 1\n")]) == 2


def test_kernelize_rejects_a_file_without_a_problem_line(tmp_path, capsys):
    path = write(tmp_path, "bare.txt", "c only a comment\n")
    assert main(["kernelize", path]) == 2
    assert capsys.readouterr().err == "parse error: missing problem line\n"


def test_kernelize_and_generate_write_to_stdout_without_o(tmp_path, capsys):
    text = "p pitvd 4 4 1\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 2\n"
    assert main(["kernelize", write(tmp_path, "in.txt", text)]) == 0
    out = capsys.readouterr().out
    res = kernelize(*parse(text))
    assert out == serialize(res.graph, res.k) == serialize(*parse(out))
    assert main(["generate", "--n", "7", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    g, k = parse(out)
    assert g.n == 7 and serialize(g, k) == out


def test_kernelize_decided_at_the_root_has_an_empty_trace(tmp_path, capsys):
    """A 4-cycle at budget 0: no rule fires before the bootstrap search
    proves no, so the run exits 20 with no rule in its histogram and an
    empty trace."""
    path = write(tmp_path, "c4.txt",
                 "p pitvd 4 4 0\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 4 1 1\n")
    tr = tmp_path / "trace.jsonl"
    assert main(["kernelize", path, "--trace", str(tr)]) == 20
    err = capsys.readouterr().err
    assert "rules    none\n" in err and "decided no" in err
    assert tr.read_text() == ""


@pytest.mark.skipif(not DIGITS_LIMITED,
                    reason="this interpreter converts any number of digits")
def test_kernelize_rejects_an_overlong_edge_field(tmp_path, capsys):
    path = write(tmp_path, "long.txt", f"p pitvd 2 1 0\ne 1 2 {LONG_FIELD}\n")
    assert main(["kernelize", path]) == 2
    assert "line 2: non-integer edge field" in capsys.readouterr().err


def test_kernelize_rejects_missing_file(tmp_path):
    assert main(["kernelize", str(tmp_path / "nope.txt")]) == 2


def test_kernelize_rejects_undecodable_file(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"p pitvd 2 1 1 \xff\n")
    assert main(["kernelize", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot read {path}: ")
    assert "Traceback" not in err


def test_kernelize_reads_utf8_under_the_c_locale(tmp_path):
    """Instance files are UTF-8 whatever the locale says."""
    path = tmp_path / "cafe.txt"
    path.write_bytes("c café\np pitvd 2 1 1\ne 1 2 1\n".encode("utf-8"))
    out = tmp_path / "out.txt"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "PYTHON"))}
    env.update(PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    done = subprocess.run([sys.executable, "-m", "pitvd.cli", "kernelize",
                           str(path), "-o", str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.read_text(encoding="utf-8").startswith("p pitvd")


@pytest.mark.parametrize("flag", ["-o", "--trace"])
def test_kernelize_reports_unwritable_output(tmp_path, capsys, flag):
    src = write(tmp_path, "in.txt", "p pitvd 3 3 1\ne 1 2 1\ne 2 3 1\ne 3 1 1\n")
    bad = str(tmp_path / "no-such-dir" / "out.txt")
    assert main(["kernelize", src, flag, bad]) == 2
    assert f"error: cannot write {bad}: " in capsys.readouterr().err


def test_generate_reports_unwritable_output(tmp_path, capsys):
    bad = str(tmp_path / "no-such-dir" / "out.txt")
    assert main(["generate", "--n", "4", "-o", bad]) == 2
    assert f"error: cannot write {bad}: " in capsys.readouterr().err


def test_kernelize_trace_replays_to_identical_kernel(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    tr = tmp_path / "trace.jsonl"
    main(["generate", "--n", "11", "--density", "0.3", "--seed", "2",
          "--k", "3", "-o", str(src)])
    assert main(["kernelize", str(src), "-o", str(out),
                 "--trace", str(tr)]) == 0
    g, k = parse(src.read_text())
    h, k2 = replay(g, k, load_trace(tr.read_text()))
    assert serialize(h, k2) == out.read_text()


def test_kernelize_rejects_huge_header(tmp_path, capsys, monkeypatch):
    count_header_vertices(monkeypatch)
    path = write(tmp_path, "huge.txt", "p pitvd 1000000000 0 0\n")
    assert main(["kernelize", path]) == 2
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "3"],
    ["verify", "--max-k", "-1"],
    ["verify", "--count", "-1"],
    ["verify", "--count", "many"],
    ["generate", "--n", "-1"],
    ["generate", "--n", "6"],
    ["generate", "--k", "-1"],
    ["generate", "--density", "-0.1"],
    ["generate", "--density", "1.5"],
    ["generate", "--density", "nan"],
    ["generate", "--double-rate", "-1"],
    ["generate", "--double-rate", "2"],
    ["generate", "--double-rate", "nan"],
])
def test_out_of_range_arguments_exit_2(argv, capsys, monkeypatch):
    # a small vertex cap, so an --n past it never reaches the edge loop
    monkeypatch.setattr(cli, "MAX_VERTICES", 5)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --" in capsys.readouterr().err


def test_smallest_allowed_arguments_run(tmp_path, capsys):
    assert main(["verify", "--count", "2", "--max-n", "4", "--max-k", "0"]) == 0
    assert "passed 2/2" in capsys.readouterr().out
    out = tmp_path / "empty.txt"
    assert main(["generate", "--n", "0", "--k", "0", "-o", str(out)]) == 0
    assert out.read_text() == "p pitvd 0 0 0\n"
    for rate in ("0", "1"):
        assert main(["generate", "--n", "3", "--density", rate,
                     "--double-rate", rate, "-o", str(out)]) == 0


def test_verify_small_run_passes(capsys):
    assert main(["verify", "--count", "6", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "passed 6/6" in out


def test_verify_count_zero_is_empty(capsys):
    assert main(["verify", "--count", "0", "--seed", "9"]) == 0
    assert "passed 0/0" in capsys.readouterr().out


def test_verify_reports_are_seed_deterministic(capsys):
    main(["verify", "--count", "5", "--seed", "42"])
    first = capsys.readouterr().out
    main(["verify", "--count", "5", "--seed", "42"])
    assert capsys.readouterr().out == first


def test_checked_functions_leave_their_input_unchanged():
    """``_check_one`` hands its graph to each of these uncopied."""
    rng = random.Random(515)
    pool = [(g, k) for _, g, k in killer_instances()]
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 11), rng.uniform(0.15, 0.6),
                              0.15)
        pool.append((g, rng.randint(0, 3)))
    for g, k in pool:
        before = g.copy()
        decide(g, k)
        res = kernelize(g, k)
        audit_violations(g, k)
        is_pitg(g, [v for v in g.vertices if rng.random() < 0.7])
        assert g == before
        assert res.graph is not g


# ---------------------------------------------------------------------------
# the structured sensitivity instances
# ---------------------------------------------------------------------------

def test_killer_instances_are_honest():
    """The real battery must handle every sensitivity instance cleanly,
    otherwise mutant detections on them would be meaningless."""
    seen = set()
    for name, g, k in killer_instances():
        assert name not in seen
        seen.add(name)
        truth = decide(g.copy(), k) is not None
        res = kernelize(g.copy(), k, rules=RULES)
        assert (not res.decided_no) == truth, name
    assert len(seen) == 14
