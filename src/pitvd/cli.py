"""Batch command-line front end.

Instance files use a DIMACS-style text format with a multiplicity
column::

    c optional comments
    p pitvd <n> <m> <k>
    e <u> <v> <mult>     (m of these; 1-indexed labels; duplicates sum)

``kernelize`` reads one instance, runs the reduction pipeline and writes
the kernel back in the same format (exit 0), or reports a definite
negative (exit 20); malformed input, a header announcing more than
``MAX_VERTICES`` vertices and out-of-range arguments exit 2.
``generate`` emits seeded random instances, ``verify`` round-trips
generated instances through the pipeline against the exact solver and
audits every kernel.  With
``--mutation-test`` the verifier swaps one rule for its deliberately
broken variant and reports whether the checks notice; a detected mutant
exits 0, a surviving one exits 1.

Traces are written one JSON object per line so a run can be replayed or
diffed with standard tools.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from .audit import audit_violations
from .driver import KernelInstance, kernelize
from .exact import decide
from .multigraph import MultiGraph
from .mutation import killer_instances, mutated_rules
from .rules import RULES, RuleApplication

DENSITIES = (0.15, 0.3, 0.5)

#: largest vertex count an instance header may announce; every header
#: vertex is created before the first edge is read
MAX_VERTICES = 100_000


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def parse(text: str) -> tuple[MultiGraph, int]:
    """Instance file text -> (graph, budget).

    Every record is checked as it is read; the graph is built once the
    whole file has passed.
    """
    edges: list[tuple[int, int, int]] = []
    n = m = k = None
    records = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second problem line")
            if len(fields) != 5 or fields[1] != "pitvd":
                raise ParseError(f"line {lineno}: expected 'p pitvd n m k'")
            try:
                n, m, k = (int(x) for x in fields[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field")
            if n < 0 or m < 0 or k < 0:
                raise ParseError(f"line {lineno}: negative header field")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: {n} vertices exceed the "
                                 f"limit of {MAX_VERTICES}")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: expected 'e u v mult'")
            try:
                u, v, mult = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer edge field")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: label out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at {u}")
            if mult < 1:
                raise ParseError(f"line {lineno}: multiplicity {mult} < 1")
            edges.append((u, v, mult))
            records += 1
        else:
            raise ParseError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise ParseError("missing problem line")
    if records != m:
        raise ParseError(f"header announces {m} edge records, found {records}")
    return MultiGraph.from_edges(edges, range(1, n + 1)), k


def serialize(g: MultiGraph, k: int) -> str:
    """Graph + budget -> instance file text, vertices relabeled to 1..n."""
    ids = sorted(g.vertices)
    label = {v: i + 1 for i, v in enumerate(ids)}
    rows = sorted((label[u], label[v], m) for u, v, m in g.edges())
    lines = [f"p pitvd {len(ids)} {len(rows)} {k}"]
    lines.extend(f"e {u} {v} {m}" for u, v, m in rows)
    return "\n".join(lines) + "\n"


def trace_lines(trace) -> str:
    """Trace -> replayable JSON-lines text."""
    out = [json.dumps({"rule": app.rule, "k_delta": app.k_delta,
                       "ops": [list(op) for op in app.ops],
                       "affected": list(app.affected)})
           for app in trace]
    return "".join(line + "\n" for line in out)


def load_trace(text: str) -> tuple[RuleApplication, ...]:
    apps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        apps.append(RuleApplication(
            rule=d["rule"],
            ops=tuple(tuple(op) for op in d["ops"]),
            k_delta=d["k_delta"],
            affected=tuple(d["affected"])))
    return tuple(apps)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def random_instance(rng: random.Random, max_n: int,
                    max_k: int) -> tuple[MultiGraph, int]:
    """One verification-corpus instance: modest size, one density from the
    standard grid, a sprinkle of multiplicity-2 and -3 edges."""
    n = rng.randint(4, max_n)
    p = rng.choice(DENSITIES)
    k = rng.randint(0, max_k)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() >= p:
                continue
            mult = 1
            if rng.random() < 0.1:
                mult = 3 if rng.random() < 0.2 else 2
            edges.append((u, v, mult))
    return MultiGraph.from_edges(edges, range(1, n + 1)), k


def _write(path: str | None, text: str) -> bool:
    """Write ``text`` to ``path`` (stdout if None); False, after an error
    message, when the path cannot be written."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _histogram(res: KernelInstance) -> str:
    hist = Counter(app.rule for app in res.trace)
    if not hist:
        return "none"
    order = sorted(hist, key=lambda r: (not r.isdigit(),
                                        int(r) if r.isdigit() else 0, r))
    return "  ".join(f"{rid} x{hist[rid]}" for rid in order)


def cmd_kernelize(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"parse error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        g, k = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    n0, m0 = g.n, g.edge_count
    res = kernelize(g, k)
    if args.trace and not _write(args.trace, trace_lines(res.trace)):
        return 2
    print(f"vertices {n0} -> {res.graph.n}", file=sys.stderr)
    print(f"edges    {m0} -> {res.graph.edge_count}", file=sys.stderr)
    print(f"budget   {k} -> {res.k}", file=sys.stderr)
    print(f"rules    {_histogram(res)}", file=sys.stderr)
    if res.decided_no:
        print("decided no", file=sys.stderr)
        return 20
    return 0 if _write(args.output, serialize(res.graph, res.k)) else 2


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    edges = []
    for u in range(1, args.n + 1):
        for v in range(u + 1, args.n + 1):
            if rng.random() >= args.density:
                continue
            mult = 2 if rng.random() < args.double_rate else 1
            edges.append((u, v, mult))
    g = MultiGraph.from_edges(edges, range(1, args.n + 1))
    return 0 if _write(args.output, serialize(g, args.k)) else 2


def _check_one(g: MultiGraph, k: int, battery) -> list[str]:
    """Problems one instance exhibits under the given rule battery."""
    truth = decide(g, k) is not None
    try:
        res = kernelize(g, k, rules=battery)
    except Exception as exc:  # a broken battery may trip internal checks
        return [f"crash: {exc!r}"]
    if res.decided_no:
        return [] if not truth else ["flipped: input solvable, kernel says no"]
    problems = [] if truth else ["flipped: input unsolvable, kernel remains"]
    problems.extend(audit_violations(res.graph, res.k))
    return problems


def cmd_verify(args) -> int:
    mutating = args.mutation_test is not None
    try:
        battery = mutated_rules(args.mutation_test) if mutating else RULES
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    pool = list(killer_instances()) if mutating else []
    pool.extend((f"{i:04d}",) + random_instance(rng, args.max_n, args.max_k)
                for i in range(args.count))
    failures = 0
    ran = 0
    for name, g, k in pool:
        ran += 1
        problems = _check_one(g, k, battery)
        tag = "ok" if not problems else "FAIL  " + "; ".join(problems)
        print(f"{name:<24} n={g.n:<3} m={g.edge_count:<3} k={k}  {tag}")
        if problems:
            failures += 1
            if mutating:
                break
    if mutating:
        if failures:
            print(f"mutant rule {args.mutation_test}: "
                  f"detected after {ran} instances")
            return 0
        print(f"mutant rule {args.mutation_test}: survived {ran} instances")
        return 1
    print(f"passed {ran - failures}/{ran}")
    return 0 if failures == 0 else 1


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in ``[lo, hi]`` (no upper end if None)."""
    def convert(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    convert.__name__ = "int"  # argparse names the type in its error message
    return convert


def _fraction(text: str) -> float:
    """argparse type: a float in [0, 1] (nan is not one)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="pitvd",
        description="Kernelization for deleting few vertices so that every "
                    "component becomes a proper interval graph or a tree.")
    sub = ap.add_subparsers(dest="command", required=True)

    kz = sub.add_parser("kernelize", help="reduce one instance file")
    kz.add_argument("input", help="instance file to reduce")
    kz.add_argument("-o", "--output", metavar="PATH",
                    help="kernel file (default: stdout)")
    kz.add_argument("--trace", metavar="PATH",
                    help="write the rule applications as JSON lines")

    vf = sub.add_parser("verify", help="round-trip random instances against "
                                       "the exact solver")
    vf.add_argument("--count", type=_int_in(0), default=100,
                    help="number of random instances (default 100)")
    vf.add_argument("--seed", type=int, default=1)
    vf.add_argument("--max-n", type=_int_in(4), default=12,
                    help="largest vertex count to generate, at least 4 "
                         "(default 12)")
    vf.add_argument("--max-k", type=_int_in(0), default=4,
                    help="largest budget to generate (default 4)")
    vf.add_argument("--mutation-test", metavar="RULE",
                    help="swap rule RULE (1..14) for its broken variant and "
                         "check the suite notices; exit 0 iff detected")

    gn = sub.add_parser("generate", help="emit a seeded random instance")
    gn.add_argument("--n", type=_int_in(0, MAX_VERTICES), default=12,
                    help=f"vertex count, at most {MAX_VERTICES} (default 12)")
    gn.add_argument("--density", type=_fraction, default=0.3,
                    help="chance each pair is joined, in [0, 1] (default 0.3)")
    gn.add_argument("--double-rate", type=_fraction, default=0.1,
                    help="chance a chosen edge is doubled, in [0, 1] "
                         "(default 0.1)")
    gn.add_argument("--seed", type=int, default=1)
    gn.add_argument("--k", type=_int_in(0), default=3)
    gn.add_argument("-o", "--output", metavar="PATH",
                    help="instance file (default: stdout)")

    args = ap.parse_args(argv)
    handler = {"kernelize": cmd_kernelize, "verify": cmd_verify,
               "generate": cmd_generate}[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
