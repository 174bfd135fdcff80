"""The mutation harness's own pins: where each mutant is first caught."""

from __future__ import annotations

import random

import pytest
from mutants import MUTANTS, first_catch, killer_instances, mutated_rules

from pitvd.cli import random_instance

#: the killer instance (1-based) that first catches each mutant; mutants
#: 8 and 10 only ever delete redundant structure and survive all 14
KILLER_CATCHES = {"1": 1, "2": 2, "3": 3, "4": 4, "5": 1, "6": 6, "7": 7,
                  "8": None, "9": 9, "10": None, "11": 11, "12": 12,
                  "13": 13, "14": 14}


@pytest.mark.parametrize("rule", sorted(MUTANTS, key=int))
def test_first_catch_on_the_killers(rule):
    assert first_catch(rule, killer_instances()) == KILLER_CATCHES[rule]


@pytest.mark.parametrize("rule, catch", [("8", None), ("11", 11)])
def test_first_catch_on_the_verify_corpus(rule, catch):
    """The killers, then the 60 instances of ``verify --seed 3``."""
    rng = random.Random(3)
    pool = killer_instances()
    pool += [(f"{i:04d}",) + random_instance(rng, 12, 4) for i in range(60)]
    assert first_catch(rule, pool) == catch


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError):
        mutated_rules("99")
