"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. All bundled instances use the 0.1 gap value; the default
tolerance is 1e-6.
"""

import itertools
import math
import random

import numpy as np
import pytest

from conftest import random_coverage_function, random_flow_instance, random_matching_instance
from permopt.baselines import brute_force, greedy_marginal, greedy_optimal_first, ratio_bound
from permopt.instance_io import bundled_instance
from permopt.lp import OPTIMAL, LpBuilder, solve
from permopt.perms import (
    Permutation,
    all_permutations,
    birkhoff_extension,
    chain_from_permutation,
    chain_transform_constraints,
    separate_permutahedron,
)
from permopt.scheduler import evaluate_schedule, master_lp_value, solve_schedule
from permopt.subproblems import emit_step, step_value
from test_scheduler import birkhoff_master_value, order_to_perm

TOL = 1e-6


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_g1_method_totals():
    inst = bundled_instance("g1")
    got = {
        "lp": solve_schedule(inst).total,
        "greedy-marginal": greedy_marginal(inst).total,
        "greedy-first": greedy_optimal_first(inst).total,
        "brute": brute_force(inst).total,
    }
    want = {"lp": 5.8, "greedy-marginal": 5.8, "greedy-first": 5.0, "brute": 5.8}
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=TOL), k
    report(1, f"G1 totals {got}")


def test_criterion_2_g2_method_totals():
    inst = bundled_instance("g2")
    got = {
        "lp": solve_schedule(inst).total,
        "greedy-marginal": greedy_marginal(inst).total,
        "greedy-first": greedy_optimal_first(inst).total,
        "brute": brute_force(inst).total,
    }
    want = {"lp": 7.0, "greedy-marginal": 5.5, "greedy-first": 7.0, "brute": 7.0}
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=TOL), k
    report(2, f"G2 totals {got}")


def test_criterion_3_d1():
    inst = bundled_instance("d1")
    lp = solve_schedule(inst).total
    gf = greedy_optimal_first(inst).total
    assert lp == pytest.approx(5.9, abs=TOL)
    assert gf == pytest.approx(5.0, abs=TOL)
    report(3, f"D1 lp={lp} greedy-first={gf}")


def test_criterion_4_d2():
    inst = bundled_instance("d2")
    lp = solve_schedule(inst).total
    gm = greedy_marginal(inst).total
    assert lp == pytest.approx(7.0, abs=TOL)
    assert gm == pytest.approx(5.5, abs=TOL)
    report(4, f"D2 lp={lp} greedy-marginal={gm}")


def test_criterion_5_d3_gap():
    inst = bundled_instance("d3")
    path_first = evaluate_schedule(inst, order_to_perm(inst, [1, 2, 3, 4, 5, 6, 7, 8]))
    lp = solve_schedule(inst).total
    brute = brute_force(inst).total
    assert path_first.total == pytest.approx(3.0, abs=TOL)
    assert lp == pytest.approx(6.4, abs=TOL)
    assert brute == pytest.approx(6.4, abs=TOL)
    assert path_first.total / brute < 0.5
    report(5, f"D3 path-first={path_first.total} lp={lp} brute={brute} ratio={path_first.total/brute:.3f}")


def test_criterion_6_exactness_random():
    rng = random.Random(6001)
    repairs = 0
    instances = []
    for _ in range(50):
        instances.append(random_matching_instance(rng, rng.randint(2, 6)))
    for _ in range(30):
        instances.append(random_flow_instance(rng, rng.randint(2, 6)))
    for inst in instances:
        s = solve_schedule(inst)
        b = brute_force(inst)
        assert s.total == pytest.approx(b.total, abs=TOL)
        assert s.certified
        repairs += int(s.repaired)
    report(6, f"80/80 random instances exact; integrality repair triggered {repairs} times")


def test_criterion_7_chain_transform_directions():
    # forward: every chain satisfies the system, all permutations m <= 6
    checked_fwd = 0
    for m in range(1, 7):
        for p in all_permutations(m):
            cm = chain_from_permutation(p)
            point = {}
            y_ids = list(range(m))
            h_ids = [[m + i * m + j for j in range(m)] for i in range(m)]
            for i in range(m):
                point[y_ids[i]] = float(p.positions[i])
                for j in range(m):
                    point[h_ids[i][j]] = float(cm.h[i][j])
            for con in chain_transform_constraints(m, y_ids, h_ids):
                assert con.satisfied(point, 1e-9)
            checked_fwd += 1
    # backward: for fixed integral y the h polytope is the single chain point
    # c. On the [0, 1] box each term of sum_{c=1} h - sum_{c=0} h is at most
    # its value at c, so a minimum of at least (ones in c) - 1e-7 keeps every
    # feasible point within 1e-7 of c in every coordinate: one LP per
    # permutation certifies what maximizing and minimizing each coordinate
    # would
    checked_bwd = 0
    for m in range(1, 6):
        for p in all_permutations(m):
            expected = chain_from_permutation(p)
            b = LpBuilder()
            y = [b.add_var(p.positions[k], p.positions[k]) for k in range(m)]
            h = [[b.add_var() for _ in range(m)] for _ in range(m)]
            b.add_all(chain_transform_constraints(m, y, h))
            ones = 0
            for i in range(m):
                for j in range(m):
                    b.objective[h[i][j]] += 1.0 if expected.h[i][j] else -1.0
                    ones += int(expected.h[i][j])
            sol = solve(b.build("min"))
            assert sol.status == OPTIMAL
            assert sol.objective >= ones - 1e-7
            checked_bwd += 1
    report(7, f"forward {checked_fwd} permutations, backward {checked_bwd} permutations, zero failures")


def test_criterion_8_membership_agreement():
    rng = np.random.default_rng(8001)
    disagreements = 0
    total = 0
    for m in (2, 3, 4, 5):
        for _ in range(500):
            point = rng.uniform(1.0, m, size=m)
            inside_sep = separate_permutahedron(m, point) is None
            b = LpBuilder()
            y = [b.add_var(point[i], point[i]) for i in range(m)]
            _, cons = birkhoff_extension(m, y, b)
            b.add_all(cons)
            inside_ext = solve(b.build("max")).status == OPTIMAL
            disagreements += int(inside_sep != inside_ext)
            total += 1
    assert disagreements == 0
    report(8, f"{total} membership checks across m in 2..5, zero disagreements")


def test_criterion_9_oracle_lp_agreement():
    checked = 0
    for name in ("g1", "g2", "d1", "d2", "d3"):
        inst = bundled_instance(name)
        for r in range(inst.m + 1):
            for subset in itertools.combinations(inst.orderable, r):
                b = LpBuilder()
                h = {e: b.add_var(float(e in subset), float(e in subset))
                     for e in inst.orderable}
                emit_step(inst, 1, h, b)
                sol = solve(b.build("max"))
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(step_value(inst, set(subset)), abs=TOL)
                checked += 1
    report(9, f"{checked} subset LPs agree with the combinatorial oracles")


def test_criterion_10_submodular_bound():
    rng = random.Random(10001)
    worst = 1.0
    for _ in range(100):
        m = rng.randint(3, 7)
        f = random_coverage_function(rng, m)
        greedy_total = greedy_marginal(f).total
        optimum = brute_force(f).total
        assert greedy_total >= ratio_bound(m) * optimum - 1e-9
        if optimum > 0:
            worst = min(worst, greedy_total / optimum)
    assert ratio_bound(2) == 0.625
    inv_e = 1.0 / math.e
    for m in range(1, 10_001):
        assert ratio_bound(m) > inv_e
    report(10, f"100 coverage instances hold the bound (worst observed ratio {worst:.4f}); "
               f"ratio_bound > 1/e for all m <= 1e4; ratio_bound(2) = 0.625")


def test_criterion_11_mode_agreement():
    rng = random.Random(11001)
    instances = [bundled_instance(n) for n in ("g1", "g2", "d1", "d2", "d3")]
    for _ in range(50):
        instances.append(random_matching_instance(rng, rng.randint(2, 6)))
    for _ in range(30):
        instances.append(random_flow_instance(rng, rng.randint(2, 6)))
    for inst in instances:
        assert master_lp_value(inst) == pytest.approx(birkhoff_master_value(inst), abs=TOL)
    report(11, f"master LP with and without the Birkhoff z-block agree on {len(instances)} instances")
