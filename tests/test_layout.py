"""Repository-shape checks: the package holds source only, its checks
survive ``python -O``, and the names the benchmark tracer wraps still
exist."""

from __future__ import annotations

import ast
import glob
import importlib
import os

from pitvd import backend

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
    methods, so its in-place subset queries stay the only path to
    ``_adj``."""
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        if os.path.basename(path) == "multigraph.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_adj"]
    assert not found


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
