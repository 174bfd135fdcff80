"""The benchmark's span tracer still finds every function it names.

``kbench/tracer.py`` wraps the functions listed in its ``TRACED`` table by
module and attribute name.  A rename or deletion in ``pitvd`` would only
show when a traced benchmark run breaks, so this test installs the tracer,
runs one kernelization through it, and checks that uninstalling puts every
original back.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from pitvd.multigraph import MultiGraph

TRACER_PATH = Path(__file__).resolve().parents[1] / "kbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("kbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bindings(tracer) -> dict:
    """Every name bound in a pitvd module or a traced class, by identity."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and name.split(".")[0] == tracer.PACKAGE]
    for modname, path in tracer.TRACED:
        owner = sys.modules[f"{tracer.PACKAGE}.{modname}"]
        for cls in path.split(".")[:-1]:
            owner = getattr(owner, cls)
            owners.append(owner)
    return {(id(owner), key): value for owner in owners
            for key, value in list(vars(owner).items())}


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = load_tracer()
    for modname, _ in tracer.TRACED:
        importlib.import_module(f"{tracer.PACKAGE}.{modname}")
    driver = sys.modules[f"{tracer.PACKAGE}.driver"]
    before = bindings(tracer)

    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {key for key, value in bindings(tracer).items()
                   if value is not before[key]}
        assert len(wrapped) >= len(tracer.TRACED)
        # three triangles on one hub: the base set and the strata are needed
        g = MultiGraph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4),
                                   (0, 4), (0, 5), (5, 6), (0, 6)])
        res = driver.kernelize(g, 1)
        calls = t.take()["calls"]
    finally:
        t.uninstall()

    assert not res.decided_no
    assert calls["driver.kernelize"] == 1
    for name in ("modulator.compute_base_set", "modulator.classify_tree_side",
                 "combinatorics.flower_in_forest", "recognition.is_pitg",
                 "multigraph.MultiGraph.copy"):
        assert calls.get(name, 0) >= 1, name
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
