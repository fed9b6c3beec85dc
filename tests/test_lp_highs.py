"""Master-LP objectives of `lp.solve` against HiGHS (scipy), test-only."""

import random

import pytest

from conftest import highs_optimum, random_flow_instance, random_matching_instance
from permopt.lp import OPTIMAL, solve, verify
from permopt.scheduler import build_master_lp

pytest.importorskip("scipy.optimize")


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


@pytest.mark.parametrize("m", [4, 6, 8, 10])
@pytest.mark.parametrize("family", ["matching", "flow"])
def test_random_start_changes_no_answer(family, m):
    # a start at random bounds is often infeasible, so phase 1 runs from it
    generate = random_matching_instance if family == "matching" else random_flow_instance
    for seed in range(3):
        inst = generate(random.Random(f"{family}/{m}/{seed}"), m)
        builder = build_master_lp(inst)[0]
        rng = random.Random(f"start/{family}/{m}/{seed}")
        start = [v for v in range(builder.n) if rng.random() < 0.5]
        plain, started = solve(builder.build("max")), solve(builder.build("max", start=start))
        assert started.status == plain.status == OPTIMAL
        assert started.objective == pytest.approx(plain.objective, rel=1e-9)
        assert verify(builder.build("max", start=start), started)
