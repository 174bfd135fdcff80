"""The kernels of the benchmark corpora are pinned.

``kbench/run.py`` reports one trace hash per workload: the sha256 of the
concatenated sha256 of ``cli.trace_lines`` of every instance's trace.
This test builds the three seed-101 corpora with ``kbench/corpus.py``,
kernelizes each instance once and recomputes that hash.  The pinned
values are the ones in ``kbench/README.md``; a change that alters a kernel
on purpose updates them there and here, and says so in CHANGES.md.

The corpora of seeds 201-203 are pinned here too, so that a refactor
meant to keep every trace is checked on more than one corpus per
workload.  Those pins are not in ``kbench/README.md``.
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


#: (seed, workload) -> trace hash, for the seeds beyond the benchmark's
MORE_SEEDS = {
    (201, "planted-interval"):
        "843ad2e46c773f065a376771c8b4599803ae34fe7d3893953767e57b986d5f37",
    (201, "planted-tree"):
        "29d0535dafe0b26ce4f6d3489d582954fdc09a7b3e7f62466a750707e266eff8",
    (201, "small-mixed"):
        "1660b5b3928fee113ca5883c57181b509dd02f561d83491bc93ea5f5cee9a74b",
    (202, "planted-interval"):
        "aa105d866a5da4238173ab5ba0c928b44f42561b38c0cdb2bec6c0c5a9e78714",
    (202, "planted-tree"):
        "8519202b4bad391100b5d5a302df39eb55aae5070e5e49d100a9be72951f753c",
    (202, "small-mixed"):
        "7a7df5f6e636101b5b61e61f0fdc365c1e69db0bd0b52b520184974ea93d46bb",
    (203, "planted-interval"):
        "6ab7e75cc020459b904071dd28fe42bf1d489073b5410f957d1e8b91d22b9ddd",
    (203, "planted-tree"):
        "d7f5ce8e6b86b337b60f02fa5fe1da08d4556fa8ffc7c998e8a7c8d8500d18b6",
    (203, "small-mixed"):
        "01a86ea0e11cc7d20ab199c0b3ee78afa35387a0e6053791d3d54a95191adb16",
}


def load_corpus():
    spec = importlib.util.spec_from_file_location("kbench_corpus", CORPUS_PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass looks its module up there
    spec.loader.exec_module(mod)
    return mod


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_hash(workload: str, seed: int) -> str:
    corpus = load_corpus()
    assert workload in corpus.WORKLOADS
    per_instance = []
    for inst in corpus.build(workload, seed, cli):
        g, k = cli.parse(inst.text)
        per_instance.append(sha(cli.trace_lines(kernelize(g, k).trace)))
    return sha("".join(per_instance))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_workload_trace_hash_is_pinned(workload):
    assert set(load_corpus().WORKLOADS) == set(PINNED)
    assert trace_hash(workload, SEED) == PINNED[workload]


@pytest.mark.parametrize("seed, workload", sorted(MORE_SEEDS))
def test_more_seeds_trace_hash_is_pinned(seed, workload):
    assert trace_hash(workload, seed) == MORE_SEEDS[seed, workload]
