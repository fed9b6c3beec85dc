import math
import random

import numpy as np
import pytest

from conftest import random_flow_instance
from permopt import lp as lpmod
from permopt.lp import (
    EQ,
    GE,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearConstraint,
    LinearProgram,
    LpBuilder,
    LpError,
    solve,
    verify,
)
from permopt.scheduler import build_master_lp


def simple_lp(sense="max"):
    b = LpBuilder()
    b.add_var("x", 0.0, 1.0, objective=1.0)
    return b.build(sense)


def test_box_maximum():
    sol = solve(simple_lp())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    b = LpBuilder()
    x = b.add_var("x")
    b.constraints.append(LinearConstraint({x: 1.0}, LE, 0.0))
    b.constraints.append(LinearConstraint({x: 1.0}, GE, 1.0))
    assert solve(b.build("max")).status == INFEASIBLE


def test_unbounded():
    b = LpBuilder()
    b.add_var("x", lower=0.0, objective=1.0)
    assert solve(b.build("max")).status == UNBOUNDED


def test_verify_accepts_solution():
    lp = simple_lp()
    sol = solve(lp)
    assert verify(lp, sol)


def test_verify_rejects_perturbed_assignment():
    lp = simple_lp()
    sol = solve(lp)
    tol = 1e-6
    sol.x = sol.x.copy()
    sol.x[0] += 10 * tol  # beyond the binding upper bound
    assert not verify(lp, sol, tol)


def test_verify_rejects_misreported_objective():
    lp = simple_lp()
    sol = solve(lp)
    sol.objective += 10 * 1e-6
    assert not verify(lp, sol, 1e-6)


def test_constraint_rejects_zero_coefficients():
    with pytest.raises(LpError):
        LinearConstraint({0: 0.0}, LE, 1.0)


def test_bad_bounds_rejected():
    with pytest.raises(LpError):
        LinearProgram(1, [1.0], [0.0], [0.0], "max")
    # every variable needs a finite lower bound, and no bound may be NaN
    for lower, upper in [(-math.inf, 1.0), (-math.inf, math.inf), (math.nan, 1.0),
                         (0.0, math.nan)]:
        with pytest.raises(LpError):
            LinearProgram(1, [lower], [upper], [0.0], "max")


def test_start_variables_need_a_declared_finite_upper_bound():
    for start in ({-1}, {2}, {1}):  # out of range, out of range, upper bound inf
        with pytest.raises(LpError, match="start variable"):
            LinearProgram(2, [0.0, 0.0], [1.0, math.inf], [0.0, 0.0], "max", start=start)
    b = LpBuilder()
    b.add_var("x", 0.0, math.inf)
    with pytest.raises(LpError, match="start variable"):
        b.build("max", start=[0])


def test_start_at_an_optimal_vertex_takes_no_iteration():
    # max x + y + z s.t. x + y = 1, y - z >= 0, all in [0, 1]: starting at
    # x = 0, y = z = 1 every row holds with its artificial at 0, so there is
    # no phase 1, and no reduced cost improves, so there is no pivot
    b = LpBuilder()
    x, y, z = (b.add_var(name, 0.0, 1.0, objective=1.0) for name in "xyz")
    b.add(LinearConstraint({x: 1.0, y: 1.0}, EQ, 1.0))
    b.add(LinearConstraint({y: 1.0, z: -1.0}, GE, 0.0))
    lp = b.build("max", start=[y, z])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.iterations == 0
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.x == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)
    assert verify(lp, sol)
    # from the default start, every variable at its lower bound, it pivots
    assert solve(b.build("max")).iterations > 0


def test_identity_chain_start_saves_iterations_on_a_flow_master():
    inst = random_flow_instance(random.Random(8), 8)
    builder, h = build_master_lp(inst)
    chain = [h[i][j] for i in range(inst.m) for j in range(i, inst.m)]
    cold, warm = solve(builder.build("max")), solve(builder.build("max", start=chain))
    assert cold.status == warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.iterations < cold.iterations


def test_equality_and_a_negative_lower_bound():
    # max x + y s.t. x + y = 3, x - y <= 1, y >= -10
    b = LpBuilder()
    x = b.add_var("x", 0.0, math.inf, objective=1.0)
    y = b.add_var("y", -10.0, math.inf, objective=1.0)
    b.add(LinearConstraint({x: 1.0, y: 1.0}, EQ, 3.0))
    b.add(LinearConstraint({x: 1.0, y: -1.0}, LE, 1.0))
    sol = solve(b.build("max"))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-8)
    assert verify(b.build("max"), sol)


def test_minimization():
    b = LpBuilder()
    x = b.add_var("x", 0.0, 10.0, objective=1.0)
    b.add(LinearConstraint({x: 1.0}, GE, 2.5))
    sol = solve(b.build("min"))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.5, abs=1e-8)


def test_random_boxes_analytic_optimum():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        b = LpBuilder()
        expected = 0.0
        for i in range(n):
            lo = rng.uniform(-5, 0)
            hi = lo + rng.uniform(0, 5)
            c = rng.uniform(-3, 3)
            b.add_var(f"x{i}", lo, hi, objective=c)
            expected += c * (hi if c > 0 else lo)
        lp = b.build("max")
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(expected, abs=1e-6)
        assert verify(lp, sol)


def test_random_simplices_analytic_optimum():
    # max c.x over the simplex sum(x) <= r, x >= 0: optimum r * max(c, 0)
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 7)
        r = rng.uniform(0.5, 4.0)
        c = [rng.uniform(-2, 3) for _ in range(n)]
        b = LpBuilder()
        xs = [b.add_var(f"x{i}", 0.0, math.inf, objective=c[i]) for i in range(n)]
        b.add(LinearConstraint({x: 1.0 for x in xs}, LE, r))
        lp = b.build("max")
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(r * max(max(c), 0.0), abs=1e-6)
        assert verify(lp, sol)


def test_determinism():
    b = LpBuilder()
    xs = [b.add_var(f"x{i}", 0.0, 1.0, objective=1.0) for i in range(5)]
    b.add(LinearConstraint({x: 1.0 for x in xs}, LE, 2.5))
    lp = b.build("max")
    s1, s2 = solve(lp), solve(lp)
    assert s1.status == s2.status == OPTIMAL
    assert s1.objective == s2.objective
    assert np.array_equal(s1.x, s2.x)


def test_builder_folds_singleton_constraints():
    b = LpBuilder()
    x = b.add_var("x", 0.0, 10.0)
    b.add(LinearConstraint({x: 2.0}, LE, 6.0))
    assert b.upper[x] == 3.0
    assert not b.constraints


@pytest.fixture
def simplex_events(monkeypatch):
    """Record each pivot as ("pivot", leaving column, entering column) and
    each bound reflection as ("reflect", column), in order."""
    events = []
    pivot, reflect = lpmod._pivot, lpmod._reflect

    def spy_pivot(T, basis, row, col):
        events.append(("pivot", basis[row], col))
        pivot(T, basis, row, col)

    def spy_reflect(T, col, ub, flipped):
        events.append(("reflect", col))
        reflect(T, col, ub, flipped)

    monkeypatch.setattr(lpmod, "_pivot", spy_pivot)
    monkeypatch.setattr(lpmod, "_reflect", spy_reflect)
    return events


def test_entering_variable_flips_to_its_upper_bound(simplex_events):
    # max x + y s.t. x + y <= 10, x <= 1, y <= 2: the row never binds, so
    # each entering variable stops at its own bound and the basis stays put
    b = LpBuilder()
    x = b.add_var("x", 0.0, 1.0, objective=1.0)
    y = b.add_var("y", 0.0, 2.0, objective=1.0)
    b.add(LinearConstraint({x: 1.0, y: 1.0}, LE, 10.0))
    lp = b.build("max")
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-9)
    assert sol.iterations == 2
    assert simplex_events == [("reflect", x), ("reflect", y)]
    assert verify(lp, sol)


def test_basic_variable_leaves_at_its_upper_bound(simplex_events):
    # max 3x + y s.t. x - y <= 0, x + y <= 4, x <= 1, y <= 5. x enters
    # first (degenerate, on the first row); then y enters and pushes the
    # basic x up to its bound 1 before any row binds, so x leaves there
    b = LpBuilder()
    x = b.add_var("x", 0.0, 1.0, objective=3.0)
    y = b.add_var("y", 0.0, 5.0, objective=1.0)
    b.add(LinearConstraint({x: 1.0, y: -1.0}, LE, 0.0))
    b.add(LinearConstraint({x: 1.0, y: 1.0}, LE, 4.0))
    lp = b.build("max")
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(6.0, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 3.0], abs=1e-9)
    assert verify(lp, sol)
    i = simplex_events.index(("pivot", x, y))
    assert simplex_events[i + 1] == ("reflect", x)


def test_bounds_only_maximum_is_the_cost_corner():
    # no rows: positive costs go to the upper bound, the rest to the lower
    lp = LinearProgram(4, [0.0, -1.0, 2.0, -3.0], [1.0, 4.0, 5.0, 7.0],
                       [2.0, -1.0, 3.0, 1.0], "max")
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, -1.0, 5.0, 7.0], abs=1e-12)
    assert sol.objective == pytest.approx(25.0, abs=1e-12)
    assert verify(lp, sol)


def test_bounds_only_maximum_with_an_infinite_upper_bound_is_unbounded():
    lp = LinearProgram(2, [0.0, 0.0], [1.0, math.inf], [1.0, 1.0], "max")
    assert solve(lp).status == UNBOUNDED
    # an infinite bound on the side the cost points away from is harmless
    lp = LinearProgram(2, [0.0, 0.0], [1.0, math.inf], [1.0, -1.0], "max")
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-12)


def test_bounds_only_program_counts_its_bound_flips(simplex_events):
    # a program with no rows takes the general path: each variable whose
    # cost points to a finite upper bound flips there, one iteration each
    lp = LinearProgram(3, [0.0, 0.0, -1.0], [1.0, 2.0, 4.0], [1.0, 3.0, -1.0], "max")
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 2.0, -1.0], abs=1e-12)
    assert sol.iterations == 2
    assert simplex_events == [("reflect", 1), ("reflect", 0)]


def beale_lp(x2_bound_as_row):
    """Beale's cycling example: max 3/4 x0 - 20 x1 + 1/2 x2 - 6 x3 s.t.
    1/4 x0 - 8 x1 - x2 + 9 x3 <= 0, 1/2 x0 - 12 x1 - 1/2 x2 + 3 x3 <= 0,
    x2 <= 1, x >= 0. Optimum 5/4 at x = (1, 0, 1, 0)."""
    b = LpBuilder()
    for i, c in enumerate([0.75, -20.0, 0.5, -6.0]):
        upper = 1.0 if i == 2 and not x2_bound_as_row else math.inf
        b.add_var(f"x{i}", 0.0, upper, objective=c)
    b.add(LinearConstraint({0: 0.25, 1: -8.0, 2: -1.0, 3: 9.0}, LE, 0.0))
    b.add(LinearConstraint({0: 0.5, 1: -12.0, 2: -0.5, 3: 3.0}, LE, 0.0))
    if x2_bound_as_row:
        b.constraints.append(LinearConstraint({2: 1.0}, LE, 1.0))  # not folded
    return b.build("max")


@pytest.mark.parametrize("x2_bound_as_row", [True, False], ids=["row", "bound"])
def test_beale_cycling_example(x2_bound_as_row, monkeypatch):
    lp = beale_lp(x2_bound_as_row)
    assert len(lp.constraints) == (3 if x2_bound_as_row else 2)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.25, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-9)
    assert verify(lp, sol)
    # Dantzig pricing alone cycles here: the Bland fallback is what ends it
    assert sol.iterations > lpmod.DEGENERATE_LIMIT
    monkeypatch.setattr(lpmod, "DEGENERATE_LIMIT", 10**9)
    assert solve(lp, max_iter=1000).status == ITERATION_LIMIT
