"""Golden exact answers: brute force's order and total on every instance of
`test_master_lps.golden_instances()` and on g1-d3 at three gap values, as
recorded in tests/data/exact_orders.json. Totals are compared by
`float.hex`, so any change to the exact order or to how its total is summed
shows here.

Regenerate (only when a change to the exact answers is intended) with
`PYTHONPATH=src:tests python tests/test_exact_orders.py`.
"""

import json
from pathlib import Path

import pytest

from permopt.baselines import brute_force
from permopt.instance_io import BUNDLED, bundled_instance
from test_master_lps import INSTANCES as MASTER_INSTANCES

GOLDEN = Path(__file__).parent / "data" / "exact_orders.json"
EPSILONS = (0.1, 0.05, 0.01)


def exact_instances() -> dict:
    """name -> instance: the golden master-LP set, then g1-d3 at each gap."""
    instances = dict(MASTER_INSTANCES)
    for name in BUNDLED:
        for eps in EPSILONS:
            instances[f"{name}@{eps}"] = bundled_instance(name, eps)
    return instances


def exact_answer(instance) -> dict:
    s = brute_force(instance)
    return {"order": list(s.order), "total": s.total.hex()}


INSTANCES = exact_instances()
RECORDED = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else {}


def test_golden_set_is_complete():
    assert sorted(RECORDED) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_exact_answer_is_unchanged(name):
    assert exact_answer(INSTANCES[name]) == RECORDED[name]


if __name__ == "__main__":
    answers = {name: exact_answer(inst) for name, inst in INSTANCES.items()}
    GOLDEN.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
