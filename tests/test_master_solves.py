"""Golden simplex paths: the unit-scaled master LP of every instance of
`test_master_lps.golden_instances()`, solved from the identity permutation's
chain as `scheduler._solve_with_cuts` starts it, ends with the status, pivot
count, extracted order and objective recorded in tests/data/master_solves.json.
The golden hashes pin the program; this pins the path the simplex takes
through it, so a refactor of the solver that moves a pivot shows here.

Regenerate (only when a change to the simplex's path is intended) with
`PYTHONPATH=src:tests python tests/test_master_solves.py`.
"""

import json
from pathlib import Path

import pytest

from permopt.lp import solve
from permopt.perms import permutation_from_point
from permopt.scheduler import _unit_scaled, build_master_lp, chain_positions
from test_master_lps import INSTANCES

GOLDEN = Path(__file__).parent / "data" / "master_solves.json"


def master_solve(instance) -> dict:
    """Status, pivots, order and objective of the unit-scaled master LP
    solved from the identity chain, h[i][j] = 1 for i <= j."""
    builder, h = build_master_lp(_unit_scaled(instance)[0])
    m = len(h)
    sol = solve(builder.build("max", start=(h[i][j] for i in range(m) for j in range(i, m))))
    order = objective = None
    if sol.x is not None:
        order = list(permutation_from_point(chain_positions(h, sol.x)).order())
        objective = sol.objective
    return {"status": sol.status, "iterations": sol.iterations, "order": order,
            "objective": objective}


RECORDED = json.loads(GOLDEN.read_text()) if __name__ != "__main__" else {}


def test_golden_set_is_complete():
    assert sorted(RECORDED) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_master_solve_is_unchanged(name):
    got, want = master_solve(INSTANCES[name]), RECORDED[name]
    assert (got["status"], got["iterations"], got["order"]) == (
        want["status"], want["iterations"], want["order"])
    if want["objective"] is None:
        assert got["objective"] is None
    else:
        assert got["objective"] == pytest.approx(want["objective"], rel=1e-12, abs=0.0)


if __name__ == "__main__":
    solves = {name: master_solve(inst) for name, inst in INSTANCES.items()}
    GOLDEN.write_text(json.dumps(solves, indent=1, sort_keys=True) + "\n")
