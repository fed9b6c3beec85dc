"""Golden master LPs: the unit-scaled master LP of every bundled instance and
of 30 `conftest` draws hashes to the SHA-256 recorded in
tests/data/master_lps.json, so a refactor of the LP blocks that changes a
bound, a coefficient, a row or the row order shows here.

Regenerate (only when a change to the master LP is intended) with
`PYTHONPATH=src:tests python tests/test_master_lps.py`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import random_flow_instance, random_matching_instance, random_network_instance
from permopt.instance_io import BUNDLED, bundled_instance
from permopt.scheduler import _unit_scaled, build_master_lp

GOLDEN = Path(__file__).parent / "data" / "master_lps.json"


def golden_instances() -> dict:
    """name -> instance: g1-d3, then flows, networks and matchings for seeds 0-9."""
    instances = {name: bundled_instance(name) for name in BUNDLED}
    for s in range(10):
        instances[f"flow/{s}"] = random_flow_instance(random.Random(s), 8)
        instances[f"network/{s}"] = random_network_instance(random.Random(s), 7, s % 3)
        instances[f"matching/{s}"] = random_matching_instance(random.Random(s), 8)
    return instances


def master_lp_hash(instance) -> str:
    """SHA-256 of the unit-scaled master LP's bounds, objective and rows, in order."""
    lp = build_master_lp(_unit_scaled(instance)[0])[0].build("max")
    rows = [(sorted(c.coefficients.items()), c.relation, c.rhs) for c in lp.constraints]
    return hashlib.sha256(repr((lp.lower, lp.upper, lp.objective, rows)).encode()).hexdigest()


INSTANCES = golden_instances()
RECORDED = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else {}


def test_golden_set_is_complete():
    assert sorted(RECORDED) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_master_lp_is_unchanged(name):
    assert master_lp_hash(INSTANCES[name]) == RECORDED[name]


if __name__ == "__main__":
    hashes = {name: master_lp_hash(inst) for name, inst in INSTANCES.items()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
