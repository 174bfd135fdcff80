#!/usr/bin/env python3
"""Kernelization benchmark: whole ``kernelize`` runs over seeded corpora.

Run from the repository root:

    python3 kbench/run.py --workload planted-interval --seed 1 --seconds 25 --trace 0
    python3 kbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One single-threaded process per workload, closed loop.  The benchmark
imports ``pitvd`` from ``src/`` of the checkout it sits in, builds the
workload's corpus from ``--seed`` (set-up), then

1. kernelizes every instance twice, untimed, and stops unless both runs
   give the same trace and the trace replays to the kernel;
2. for ``--seconds`` seconds makes whole passes over the corpus, each pass
   parse -> kernelize -> serialize for every instance (``kernelize_s``),
   then ``audit_violations`` on every kernel not decided no (``audit_s``),
   and checks that the pass repeated every trace and audited clean;
3. checks every kernel against computations made apart from ``pitvd``
   (``checker.py``).

Times are medians over passes, converted to seconds at a reference speed
by a calibration loop run between the operations (README.md, "Timing").
With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
the passes run with ``tracer.py`` installed and it reports calls and self
time per traced function, the per-rule scans, firings and self time, and
four work counters; the spans of the last pass go to ``kbench/results/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from corpus import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: run in a fresh interpreter, so that every set-up pays the whole import
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t = time.perf_counter(); import pitvd.cli; "
                "print(time.perf_counter() - t)")


#: wall seconds of operations between two runs of the calibration loop
CALIBRATE_EVERY = 0.1
#: time of one calibration loop at the reference speed; timings are
#: reported in seconds at that speed (see README.md, "Timing")
REFERENCE_CALIBRATION_S = 0.004


def _calibration_graph() -> dict:
    rng = random.Random(0)
    adj = {v: set() for v in range(300)}
    for _ in range(900):
        a, b = rng.randrange(300), rng.randrange(300)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


CALIBRATION_GRAPH = _calibration_graph()


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop (breadth-first searches on
    a fixed graph); the machine's speed of the moment, inversely."""
    adj = CALIBRATION_GRAPH
    t0 = time.perf_counter()
    for src in range(0, 300, 12):
        depth = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
    return time.perf_counter() - t0


def timed_phase(fn, items):
    """``fn`` on every item; returns the outputs, the wall time of the calls
    together, and that time at the reference speed.

    The calibration loop runs before the first call and again whenever
    ``CALIBRATE_EVERY`` seconds have passed, and after the last; the calls
    between two calibrations are converted at the mean speed of the two.
    """
    clock = time.perf_counter
    outs, wall, at_ref = [], 0.0, 0.0
    cal = calibrate()
    segment = 0.0
    last = clock()
    for i, item in enumerate(items):
        t0 = clock()
        outs.append(fn(item))
        t1 = clock()
        segment += t1 - t0
        if t1 - last >= CALIBRATE_EVERY or i == len(items) - 1:
            now = calibrate()
            at_ref += segment * REFERENCE_CALIBRATION_S / ((cal + now) / 2)
            wall += segment
            cal, segment = now, 0.0
            last = clock()
    return outs, wall, at_ref


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        from pitvd import audit, backend, cli, driver, exact, rules
        self.audit, self.backend, self.cli = audit, backend, cli
        self.driver, self.exact, self.rules = driver, exact, rules
        self.workload, self.seed, self.traced = workload, seed, traced
        self.tracer = None
        self.battery = None
        self.failures: list[str] = []   # failed checks
        self.errors = 0                 # timed operations that raised

    # -- one operation --------------------------------------------------

    def pipeline(self, text: str):
        """parse -> kernelize -> serialize; ``None`` if it raised."""
        try:
            g, k = self.cli.parse(text)
            if self.battery is None:
                res = self.driver.kernelize(g, k)
            else:
                res = self.driver.kernelize(g, k, rules=self.battery)
            out = None if res.decided_no else self.cli.serialize(res.graph, res.k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
            return None
        return res, out

    def audit_one(self, res):
        try:
            return self.audit.audit_violations(res.graph, res.k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
            return None

    # -- stages ---------------------------------------------------------

    def setup(self, corpus_mod) -> float:
        """Median over repeats of import time (in a fresh interpreter)
        plus corpus generation and serialization, at the reference
        speed."""
        probe = [sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))]
        times, texts = [], None
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            imported = subprocess.run(probe, capture_output=True, text=True,
                                      check=True, timeout=60)
            t0 = time.perf_counter()
            corpus = corpus_mod.build(self.workload, self.seed, self.cli)
            wall = float(imported.stdout) + time.perf_counter() - t0
            times.append(wall * REFERENCE_CALIBRATION_S
                         / ((before + calibrate()) / 2))
            now = [inst.text for inst in corpus]
            if texts is not None and now != texts:
                self.failures.append("corpus generation is not deterministic")
            texts = now
        self.corpus = corpus
        return median(times)

    def determinism_check(self) -> float:
        """Two untimed runs per instance must agree and replay; returns the
        time of the second run over the corpus, at the reference speed (an
        untraced reference for the tracing overhead)."""
        self.ref = []
        for inst in self.corpus:
            first = self.pipeline(inst.text)
            self.ref.append(first)
            if first is None:   # counted in ``failed`` by the timed passes
                continue
            res, _ = first
            g, k = self.cli.parse(inst.text)
            rg, rk = self.driver.replay(g, k, res.trace)
            if rg != res.graph or rk != res.k:
                self.failures.append(f"{inst.name}: trace does not replay")
        self.ref_hash = [None if r is None else
                         sha(self.cli.trace_lines(r[0].trace))
                         for r in self.ref]
        again, _, at_ref = timed_phase(lambda inst: self.pipeline(inst.text),
                                       self.corpus)
        self.compare(again, "repeat")
        if self.failures:
            raise SystemExit("determinism check failed:\n  "
                             + "\n  ".join(self.failures))
        self.errors = 0
        return at_ref

    def compare(self, results, label: str) -> None:
        for inst, want, got in zip(self.corpus, self.ref_hash, results):
            if got is None or want is None:
                continue
            if sha(self.cli.trace_lines(got[0].trace)) != want:
                self.failures.append(f"{inst.name}: {label} trace differs")

    def timed_passes(self, seconds: float):
        """Whole passes until ``seconds`` have gone by."""
        counters = self.tracer.counters if self.tracer is not None else None
        recog = []

        def kernelize_one(inst):
            before = counters["exact.recognitions"] if counters else 0
            out = self.pipeline(inst.text)
            if counters is not None:
                recog.append(counters["exact.recognitions"] - before)
            return out

        def audit_one(r):
            return None if r is None or r[0].decided_no else self.audit_one(r[0])

        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            if self.tracer is not None:
                self.tracer.clear_spans()
                self.tracer.take()
            recog.clear()
            results, k_wall, k_ref = timed_phase(kernelize_one, self.corpus)
            k_trace = self.tracer.take() if self.tracer is not None else None
            audits, a_wall, a_ref = timed_phase(audit_one, results)
            a_trace = self.tracer.take() if self.tracer is not None else None
            self.check_pass(results, audits)
            passes.append({
                "kernelize_wall_s": k_wall, "audit_wall_s": a_wall,
                "kernelize_s": k_ref, "audit_s": a_ref,
                "k_scale": k_ref / k_wall if k_wall else 0.0,
                "a_scale": a_ref / a_wall if a_wall else 0.0,
                "k_trace": k_trace, "a_trace": a_trace,
                "recognitions": list(recog)})
        return passes

    # -- checks ---------------------------------------------------------

    def check_pass(self, results, audits) -> None:
        """A timed pass repeats the first traces and audits clean."""
        self.compare(results, "timed pass")
        for inst, r, viol in zip(self.corpus, results, audits):
            if r is not None and not r[0].decided_no and viol:
                self.failures.append(f"{inst.name}: audit: {viol[0]}")

    def check(self) -> None:
        import checker   # networkx; imported after the timed passes

        for inst, r in zip(self.corpus, self.ref):
            if r is None:
                continue
            res, out = r
            if res.k > inst.k or res.graph.n > inst.n:
                self.failures.append(f"{inst.name}: kernel grew")
            g_in, k_in = checker.read_instance(inst.text)
            if inst.solution is not None:
                self.check_known(inst, res, out, checker, g_in, k_in)
            else:
                self.check_brute(inst, res, out, checker, g_in, k_in)

    def check_known(self, inst, res, out, checker, g_in, k_in) -> None:
        if len(inst.solution) > k_in or not checker.is_solution(g_in, inst.solution):
            self.failures.append(f"{inst.name}: built deletion set is no solution")
        if res.decided_no:
            self.failures.append(f"{inst.name}: yes-instance decided no")
            return
        g, k = self.cli.parse(out)
        sol = self.exact.decide(g, k)
        g_out, k_out = checker.read_instance(out)
        if sol is None or len(sol) > k_out or not checker.is_solution(g_out, sol):
            self.failures.append(f"{inst.name}: kernel has no checked solution")

    def check_brute(self, inst, res, out, checker, g_in, k_in) -> None:
        truth = checker.brute_verdict(g_in, k_in)
        if res.decided_no:
            if truth:
                self.failures.append(f"{inst.name}: yes-instance decided no")
            return
        g_out, k_out = checker.read_instance(out)
        if checker.brute_verdict(g_out, k_out) != truth:
            self.failures.append(f"{inst.name}: kernel flips the verdict")


def median_of(passes, key: str) -> float:
    return median(p[key] for p in passes)


def end_to_end(bench, passes, setup_s, peak_rss_mb) -> dict:
    kernels = [r for r in bench.ref if r is not None and not r[0].decided_no]
    return {
        "kernelize_s": (median_of(passes, "kernelize_s"), "s"),
        "audit_s": (median_of(passes, "audit_s"), "s"),
        "kernel_vertices": (sum(r[0].graph.n for r in kernels), "vertices"),
        "kernel_edges": (sum(r[0].graph.edge_count for r in kernels), "edges"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(passes) -> dict:
    from tracer import COUNTERS, TRACED

    def total(p, part, name):
        """Both phases of pass ``p``; times at the reference speed."""
        k = p["k_trace"][part].get(name, 0)
        a = p["a_trace"][part].get(name, 0)
        if part == "self_s":
            return k * p["k_scale"] + a * p["a_scale"]
        return k + a

    out = {}
    for mod, path in TRACED:
        name = f"{mod}.{path}"
        out[f"{name}.calls"] = (median(total(p, "calls", name) for p in passes), "count")
        out[f"{name}.self_s"] = (median(total(p, "self_s", name) for p in passes), "s")
    for n in range(1, 15):
        name = f"rules.r{n}"
        out[f"{name}.scans"] = (median(total(p, "calls", name) for p in passes), "count")
        out[f"{name}.fires"] = (median(total(p, "fires", name) for p in passes), "count")
        out[f"{name}.self_s"] = (median(total(p, "self_s", name) for p in passes), "s")
    for name in COUNTERS:
        out[name] = (median(total(p, "counters", name) for p in passes), "count")
    out["trace.kernelize_s"] = (median_of(passes, "kernelize_s"), "s")
    out["trace.audit_s"] = (median_of(passes, "audit_s"), "s")
    out["trace.spans"] = (median(p["k_trace"]["spans"] + p["a_trace"]["spans"]
                                 for p in passes), "count")
    return out


def layer_summary(passes, untraced_s: float) -> list[str]:
    """Self time per layer and phase (medians over passes), as text."""
    from tracer import LAYERS

    def layer_self(trace, scale):
        per = dict.fromkeys(LAYERS, 0.0)
        for name, s in trace["self_s"].items():
            per[name.split(".")[0]] += s * scale
        return per

    lines = []
    for phase, key, scale, timed in (
            ("kernelize", "k_trace", "k_scale", "kernelize_s"),
            ("audit", "a_trace", "a_scale", "audit_s")):
        per = {layer: median(layer_self(p[key], p[scale])[layer]
                             for p in passes)
               for layer in LAYERS}
        total = sum(per.values())
        lines.append(f"{phase} phase: layer self times sum to {total:.4f} s, "
                     f"traced {phase}_s {median_of(passes, timed):.4f} s")
        for layer, s in sorted(per.items(), key=lambda kv: -kv[1]):
            if s > 0:
                lines.append(f"  {layer:<14} {s:9.4f} s  "
                             f"{100 * s / total if total else 0:5.1f} %")
    traced_k = median_of(passes, "kernelize_s")
    lines.append(f"tracing overhead on kernelize: {traced_k:.4f} s traced vs "
                 f"{untraced_s:.4f} s untraced (determinism-check repeat), "
                 f"x{traced_k / untraced_s:.2f}")
    lines.append("(times in seconds at the reference speed)")
    return lines


def run_one(args) -> int:
    if not (SRC / "pitvd" / "__init__.py").is_file():
        print(f"error: no pitvd sources at {SRC.relative_to(ROOT)}/pitvd; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pitvd.cli
    if Path(pitvd.cli.__file__).resolve().parent != (SRC / "pitvd").resolve():
        print("error: imported pitvd from outside src/", file=sys.stderr)
        return 2
    import corpus

    bench = Bench(args.workload, args.seed, bool(args.trace))
    setup_s = bench.setup(corpus)
    untraced_s = bench.determinism_check()

    if bench.traced:
        from tracer import Tracer
        bench.tracer = Tracer()
        bench.tracer.install()
        bench.battery = bench.tracer.rule_battery(bench.rules.RULES)
    passes = bench.timed_passes(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if bench.tracer is not None:
        bench.tracer.uninstall()
        bench.battery = None
    bench.check()

    attempted = len(passes) * len(bench.corpus)
    workload_hash = sha("".join(h or "-" for h in bench.ref_hash))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"instances {len(bench.corpus)}  passes {len(passes)}  "
          f"trace {args.trace}  compiled backend "
          f"{bench.backend.HAVE_COMPILED}")
    if bench.traced:
        metrics = per_layer(passes)
        for line in layer_summary(passes, untraced_s):
            print(line)
    else:
        metrics = end_to_end(bench, passes, setup_s, peak_rss_mb)
        for name, (value, unit) in metrics.items():
            print(f"{name:<16} {value:.6g} {unit}")
    print(f"wall time, median pass: kernelize "
          f"{median_of(passes, 'kernelize_wall_s'):.4f} s  audit "
          f"{median_of(passes, 'audit_wall_s'):.4f} s")
    print(f"attempted {attempted}  failed {bench.errors}")
    print(f"trace_hash {workload_hash}")
    for problem in bench.failures[:20]:
        print(f"CHECK FAILED: {problem}")

    result = {"correct": not bench.failures, "attempted": attempted,
              "failed": bench.errors,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, trace_hash=workload_hash,
                  instances=[inst.name for inst in bench.corpus],
                  **{key: [p[key] for p in passes] for key in (
                      "kernelize_s", "audit_s",
                      "kernelize_wall_s", "audit_wall_s")},
                  failures=bench.failures)
    if bench.traced:
        detail["exact_recognitions"] = passes[-1]["recognitions"]
        bench.tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed passes run (whole passes; "
                         "at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
