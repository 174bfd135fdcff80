"""Repository-shape checks: the package holds source only, its checks
survive ``python -O``, it defines no dead helper, and the names the
benchmark tracer wraps still exist."""

from __future__ import annotations

import ast
import glob
import importlib
import os
import re

from pitvd import backend
from pitvd.multigraph import MultiGraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "pitvd")
KBENCH_DIR = os.path.join(ROOT, "kbench")


def test_package_holds_only_python_sources():
    stray = []
    for root, dirs, files in os.walk(PACKAGE_DIR):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        stray += [os.path.join(root, f) for f in files
                  if not f.endswith(".py")]
    assert not stray


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``; checks must ``raise`` instead."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_only_multigraph_reads_the_adjacency():
    """Every other module reaches the graph through ``MultiGraph``'s
    public methods: it reads no private attribute of the class (its
    adjacency, counters, indexes and verdicts, or a private method), so
    the in-place subset queries stay the only path to ``_adj`` and every
    edit keeps the bookkeeping current."""
    private = {name for name in [*MultiGraph.__slots__, *vars(MultiGraph)]
               if name.startswith("_") and not name.endswith("__")}
    assert "_adj" in private
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        if os.path.basename(path) == "multigraph.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno} {node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found


#: the kept structures of ``MultiGraph`` whose upkeep ``_touch`` decides,
#: each with the methods that may write it: ``__init__``, ``_touch``, and
#: the readers that build, patch or repair it, or the recorder that sets it
_READERS = {"__init__", "_touch", "view", "pendant_trees", "_patch_pendant",
            "find_degree2_paths", "_repair_degree2_paths"}
KEPT = {"_view": _READERS, "_version": _READERS, "_pendant": _READERS,
        "_dead": _READERS, "_touched": _READERS,
        "_base_set": {"__init__", "_touch", "record_base_set"}}


def test_only_touch_decides_what_an_edit_does_to_the_kept_structures():
    """No edit method of ``MultiGraph`` writes a kept structure itself:
    it calls ``_touch``, the one place that drops a structure or records
    what its reader repairs.  A write is an assignment to the field, to
    an item of it, or a method called on it.  The recorded base set is
    written only by ``__init__``, ``_touch`` and ``record_base_set``."""
    with open(os.path.join(PACKAGE_DIR, "multigraph.py")) as fh:
        tree = ast.parse(fh.read())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "MultiGraph")
    writes = (ast.Store, ast.Del)
    found = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            target = None
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, writes):
                target = node
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, writes):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value
            if (isinstance(target, ast.Attribute) and target.attr in KEPT
                    and method.name not in KEPT[target.attr]):
                found.append(f"{method.name}:{node.lineno} {target.attr}")
    assert not found


#: public entry points that only code outside ``src`` calls
ENTRY_POINTS = {"MultiGraph.add_vertex", "load_trace", "replay"}


def test_every_defined_name_is_used():
    """Every function, method and class of the package is named somewhere
    in ``src`` outside its own definition (a word search), unless it is a
    dunder or a listed entry point.  ``kbench`` is not searched: its
    tracer names the functions it wraps as strings, which would count a
    function whose last caller is gone as used."""
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                             recursive=True))
    lines = {}
    for path in paths:
        with open(path) as fh:
            lines[path] = fh.read().splitlines()

    def used(name, path, first, last):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return any(word.search(line)
                   for p, text in lines.items()
                   for i, line in enumerate(text, 1)
                   if not (p == path and first <= i <= last))

    dead = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        tree = ast.parse("\n".join(lines[path]), path)
        owners = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            qual = f"{owners[node]}.{name}" if node in owners else name
            if qual in ENTRY_POINTS:
                continue
            if not used(name, path, node.lineno, node.end_lineno):
                dead.append(f"{os.path.basename(path)}:{node.lineno} {qual}")
    assert not dead


def test_traced_names_resolve(monkeypatch):
    """Every function ``kbench/tracer.py`` wraps is a callable of pitvd."""
    monkeypatch.syspath_prepend(KBENCH_DIR)
    from tracer import TRACED

    for modname, path in TRACED:
        owner = importlib.import_module(f"pitvd.{modname}")
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (modname, path)
    assert backend.HAVE_COMPILED is False
