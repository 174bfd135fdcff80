"""In-memory span tracer that wraps pitvd's public functions from outside.

``Tracer.install()`` replaces each function named in ``TRACED`` by a
wrapper, everywhere pitvd binds it: in the module that defines it and in
every module that imported it by name (methods are replaced on their
class).  A wrapper records one span (name, start, end, parent) per call,
and adds the call and its self time -- its duration minus the time of its
direct child spans -- to per-name totals.  The rules are traced through
the public ``rules=`` argument of ``driver.kernelize`` instead
(``Tracer.rule_battery``).  ``uninstall()`` puts the originals back.

Spans stay in memory; the caller reads the totals per pass with ``take()``
and writes the spans of a pass out with ``write_spans()``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

#: (module, attribute path) of every traced function; the layer of a
#: function is its module
TRACED = (
    ("cli", "parse"), ("cli", "serialize"),
    ("driver", "kernelize"),
    ("rules", "apply_ops"),
    ("modulator", "compute_base_set"), ("modulator", "classify_tree_side"),
    ("modulator", "small_obstruction_family"),
    ("modulator", "greedy_modulator"),
    ("combinatorics", "sunflower_reduce"),
    ("combinatorics", "flower_in_forest"), ("combinatorics", "q_expansion"),
    ("exact", "decide"),
    ("recognition", "is_pitg"), ("recognition", "pig_order"),
    ("recognition", "component_clean"), ("recognition", "obstruction_sets"),
    ("recognition", "find_hole"),
    ("backend", "comp_masks"), ("backend", "count_edges"),
    ("backend", "find_triangle"), ("backend", "find_claw"),
    ("backend", "chordal_fail"), ("backend", "net_tent_witnesses"),
    ("backend", "small_cycles"), ("backend", "umbrella_ok"),
    ("cliques", "clique_path"), ("cliques", "attachment"),
    ("marking", "unmarked_vertices"), ("marking", "mark_clique"),
    ("flows", "min_vertex_separator"), ("flows", "Dinic.max_flow"),
    ("multigraph", "MultiGraph.copy"), ("multigraph", "MultiGraph.induced"),
    ("multigraph", "MultiGraph.compact"),
    ("multigraph", "MultiGraph.components"),
    ("audit", "audit_violations"),
)

LAYERS = ("cli", "driver", "rules", "modulator", "combinatorics", "exact",
          "recognition", "backend", "cliques", "marking", "flows",
          "multigraph", "audit")

COUNTERS = ("exact.recognitions", "modulator.base_set_size",
            "modulator.fallbacks", "marking.marked")


PACKAGE = "pitvd"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []      # span name id -> name
        self.spans: list = []           # (name id, start, end, parent index)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.fires: Counter = Counter()
        self._stack: list[int] = []     # open span indices
        self._child: list[float] = []   # child time of each open span
        self._restore: list = []
        self._taken = 0                 # spans already counted by take()

    # -- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((nid, None, None, parent))
            stack.append(idx)
            child.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                spans[idx] = (nid, start, end, parent)
                calls[name] += 1
                self_s[name] += end - start - inner
            if on_result is not None:
                on_result(out, parent)
            return out

        return traced

    def parent_name(self, parent: int) -> str | None:
        return None if parent < 0 else self.names[self.spans[parent][0]]

    # -- installation ---------------------------------------------------

    def _hooks(self):
        def recognitions(_out, parent):
            if self.parent_name(parent) == "exact.decide":
                self.counters["exact.recognitions"] += 1

        def base_set(out, _parent):
            s, fallback = out
            if s is not None:
                self.counters["modulator.base_set_size"] += len(s)
            self.counters["modulator.fallbacks"] += bool(fallback)

        def marked(out, _parent):
            self.counters["marking.marked"] += len(out)

        return {"recognition.is_pitg": recognitions,
                "modulator.compute_base_set": base_set,
                "marking.mark_clique": marked}

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        hooks = self._hooks()
        for modname, path in TRACED:
            name = f"{modname}.{path}"
            owner = mods[f"{PACKAGE}.{modname}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, hooks.get(name))
            if classes:
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def rule_battery(self, rules):
        """``rules`` with every trigger function wrapped as ``rules.r<N>``."""
        out = []
        for rule_id, needs_mod, fn in rules:
            name = f"rules.r{rule_id}"

            def fired(app, _parent, name=name):
                if app is not None:
                    self.fires[name] += 1

            out.append((rule_id, needs_mod, self.wrap(name, fn, fired)))
        return tuple(out)

    # -- reading --------------------------------------------------------

    def take(self) -> dict:
        """Totals since the last call, then reset them (spans are kept
        until ``clear_spans``)."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "counters": dict(self.counters), "fires": dict(self.fires),
               "spans": len(self.spans) - self._taken}
        self._taken = len(self.spans)
        for c in (self.calls, self.self_s, self.counters, self.fires):
            c.clear()
        return out

    def clear_spans(self) -> None:
        self.spans.clear()
        self._taken = 0

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent])
                         + "\n")
