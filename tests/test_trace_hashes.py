"""The kernels of the benchmark corpora are pinned.

``kbench/run.py`` reports one trace hash per workload: the sha256 of the
concatenated sha256 of ``cli.trace_lines`` of every instance's trace.
This test builds the three seed-101 corpora with ``kbench/corpus.py``,
kernelizes each instance once and recomputes that hash.  The pinned
values are the ones in ``kbench/README.md``; a change that alters a kernel
on purpose updates them there and here, and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pitvd import cli
from pitvd.driver import kernelize

CORPUS_PATH = Path(__file__).resolve().parents[1] / "kbench" / "corpus.py"

SEED = 101
PINNED = {
    "planted-interval":
        "da06a5343255d557fba7e02700663d0ed8f6522b17bcb4333b1853a5b475f983",
    "planted-tree":
        "be78f3c1ca11697b59b3c2050af1ccf422df554cd004a9c6376bed1510e64eff",
    "small-mixed":
        "f6f7dbd4c339635e43be72d267f7ac68a38f3a7e41c2acab23b3fc34b0721f2a",
}


def load_corpus():
    spec = importlib.util.spec_from_file_location("kbench_corpus", CORPUS_PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks its module up there
    spec.loader.exec_module(mod)
    return mod


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_trace_hash_is_pinned(workload):
    corpus = load_corpus()
    assert set(corpus.WORKLOADS) == set(PINNED)
    per_instance = []
    for inst in corpus.build(workload, SEED, cli):
        g, k = cli.parse(inst.text)
        per_instance.append(sha(cli.trace_lines(kernelize(g, k).trace)))
    assert sha("".join(per_instance)) == PINNED[workload]
