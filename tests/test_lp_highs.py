"""Master-LP objectives of `lp.solve` against HiGHS (scipy), test-only."""

import math
import random

import numpy as np
import pytest

from conftest import random_flow_instance, random_matching_instance
from permopt.lp import EQ, GE, OPTIMAL, solve, verify
from permopt.scheduler import build_master_lp

optimize = pytest.importorskip("scipy.optimize")


def highs_optimum(lp):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        sign = -1.0 if con.relation == GE else 1.0
        row = np.zeros(lp.n)
        for var, coef in con.coefficients.items():
            row[var] = sign * coef
        a, b = (a_eq, b_eq) if con.relation == EQ else (a_ub, b_ub)
        a.append(row)
        b.append(sign * con.rhs)
    sense = -1.0 if lp.sense == "max" else 1.0
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = optimize.linprog(sense * np.array(lp.objective),
                           A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                           A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                           bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return sense * res.fun


@pytest.mark.parametrize("m", [4, 6, 8, 10])
@pytest.mark.parametrize("family", ["matching", "flow"])
def test_master_lp_matches_highs(family, m):
    generate = random_matching_instance if family == "matching" else random_flow_instance
    for seed in range(3):
        inst = generate(random.Random(f"{family}/{m}/{seed}"), m)
        prog = build_master_lp(inst)[0].build("max")
        sol = solve(prog)
        assert sol.status == OPTIMAL
        ref = highs_optimum(prog)
        assert abs(sol.objective - ref) <= 1e-6 * max(1.0, abs(ref)), (seed, sol.objective, ref)
        assert verify(prog, sol)
