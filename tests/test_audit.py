"""The irreducibility audit reports every rule that still fires."""

import pytest

from pitvd.audit import audit_violations
from pitvd.mutation import killer_instances
from pitvd.rules import RULES

KILLERS = killer_instances()


@pytest.mark.parametrize("name,g,k", KILLERS, ids=[n for n, _, _ in KILLERS])
def test_audit_names_every_firing_raw_rule(name, g, k):
    found = audit_violations(g, k)
    missed = [rule_id for rule_id, needs_mod, fn in RULES
              if not needs_mod and fn(g, k) is not None
              and f"rule {rule_id} still applies" not in found]
    assert not missed, found
