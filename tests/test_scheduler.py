import random

import pytest

from conftest import random_flow_instance, random_matching_instance
from permopt.baselines import brute_force
from permopt.instance_io import bundled_instance
from permopt.lp import OPTIMAL, solve
from permopt.perms import Permutation, all_permutations, birkhoff_extension
from permopt.scheduler import (
    CUTTING_PLANE,
    EXTENDED,
    Schedule,
    SolveError,
    build_master_lp,
    evaluate_schedule,
    master_lp_value,
    master_lp_value_fixed_y,
    solve_schedule,
)
from permopt.subproblems import MatchingInstance, make_instance


def order_to_perm(instance, order_ids):
    index = {e: i for i, e in enumerate(instance.orderable)}
    return Permutation.from_order([index[e] for e in order_ids])


def birkhoff_master_value(instance):
    """Optimum of the master LP with a doubly-stochastic z-block added on
    the position variables: the reference formulation that the single
    master program must match."""
    builder, mv = build_master_lp(instance)
    _, cons = birkhoff_extension(instance.m, mv.y, builder)
    builder.add_all(cons)
    sol = solve(builder.build("max"))
    assert sol.status == OPTIMAL
    return sol.objective


class TestEvaluateSchedule:
    def test_g1_optimal_order(self):
        inst = bundled_instance("g1")
        s = evaluate_schedule(inst, order_to_perm(inst, [1, 0, 2]))
        assert s.step_values == pytest.approx((1.9, 1.9, 2.0))
        assert s.total == pytest.approx(5.8)

    def test_d3_path_first(self):
        inst = bundled_instance("d3")
        s = evaluate_schedule(inst, order_to_perm(inst, [1, 2, 3, 4, 5, 6, 7, 8]))
        assert s.total == pytest.approx(3.0)

    def test_d3_shortcut_first(self):
        inst = bundled_instance("d3")
        s = evaluate_schedule(inst, order_to_perm(inst, [7, 8, 1, 2, 3, 4, 5, 6]))
        assert s.total == pytest.approx(6.4)

    @pytest.mark.parametrize("steps,total,bound", [
        ((1.0, 2.0), 4.0, None),   # total is not the sum of the steps
        ((2.0, 1.0), 3.0, None),   # steps decrease
        ((1.0, 2.0), 3.0, 2.5),    # total exceeds the LP bound
    ])
    def test_invariants_raise(self, steps, total, bound):
        with pytest.raises(ValueError):
            Schedule(Permutation((1, 2)), steps, total, "evaluated", lp_bound=bound)

    def test_steps_nondecreasing(self):
        inst = bundled_instance("g2")
        for p in all_permutations(inst.m):
            s = evaluate_schedule(inst, p)
            assert all(b >= a - 1e-9 for a, b in zip(s.step_values, s.step_values[1:]))


class TestMasterLp:
    def test_m1_single_edge(self):
        data = MatchingInstance({0: (0, 1)}, {0: 5.0}, frozenset({0}))
        inst = make_instance("matching", data, [])
        s = solve_schedule(inst)
        assert s.total == pytest.approx(5.0)
        assert s.lp_bound == pytest.approx(5.0)
        assert s.permutation.positions == (1,)

    def test_relaxation_soundness_g2(self):
        inst = bundled_instance("g2")
        bound = master_lp_value(inst)
        for p in all_permutations(inst.m):
            assert evaluate_schedule(inst, p).total <= bound + 1e-6

    def test_decoupling_fixed_y(self):
        # with integral positions the master objective is the sum of step values
        for name in ("g1", "d1"):
            inst = bundled_instance(name)
            for p in list(all_permutations(inst.m))[:8]:
                expected = evaluate_schedule(inst, p).total
                assert master_lp_value_fixed_y(inst, p) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("name", ["g1", "g2", "d1", "d2"])
    def test_mode_agreement_bundled(self, name):
        # the chain program alone and with the Birkhoff z-block have one optimum
        inst = bundled_instance(name)
        assert master_lp_value(inst) == pytest.approx(birkhoff_master_value(inst), abs=1e-6)

    @pytest.mark.parametrize("name", ["g1", "d1"])
    def test_mode_names_build_one_program(self, name):
        inst = bundled_instance(name)
        a, va = build_master_lp(inst, EXTENDED)
        b, vb = build_master_lp(inst, CUTTING_PLANE)
        assert a.build("max") == b.build("max")
        assert va == vb

    def test_unknown_mode_rejected(self):
        with pytest.raises(SolveError):
            build_master_lp(bundled_instance("g1"), "birkhoff")


class TestSolveSchedule:
    @pytest.mark.parametrize(
        "name,total", [("g1", 5.8), ("g2", 7.0), ("d1", 5.9), ("d2", 7.0), ("d3", 6.4)]
    )
    def test_bundled_totals(self, name, total):
        s = solve_schedule(bundled_instance(name))
        assert s.total == pytest.approx(total, abs=1e-6)
        assert s.certified
        assert s.total <= s.lp_bound + 1e-6

    def test_g1_realizes_heavy_edge_first(self):
        s = solve_schedule(bundled_instance("g1"))
        assert s.order[0] == 1

    def test_matches_brute_force_random_matching(self, rng):
        for _ in range(6):
            inst = random_matching_instance(rng, rng.randint(2, 5))
            s = solve_schedule(inst)
            assert s.total == pytest.approx(brute_force(inst).total, abs=1e-6)

    def test_matches_brute_force_random_flow(self, rng):
        for _ in range(4):
            inst = random_flow_instance(rng, rng.randint(2, 5))
            s = solve_schedule(inst)
            assert s.total == pytest.approx(brute_force(inst).total, abs=1e-6)

    def test_cutting_plane_mode_same_total(self):
        for name in ("g1", "d1"):
            a = solve_schedule(bundled_instance(name), mode=EXTENDED)
            b = solve_schedule(bundled_instance(name), mode=CUTTING_PLANE)
            assert a.total == pytest.approx(b.total, abs=1e-6)

    def test_default_mode_solves_m9_matching(self):
        # this instance stalled the doubly-stochastic formulation at the
        # simplex iteration limit
        inst = random_matching_instance(random.Random(424245), 9)
        s = solve_schedule(inst)
        assert s.total == pytest.approx(221.0, abs=1e-6)
        assert s.certified
