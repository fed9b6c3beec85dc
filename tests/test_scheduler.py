import itertools
import random
from dataclasses import replace

import pytest

from conftest import highs_optimum, random_flow_instance, random_matching_instance, walked
from permopt.baselines import brute_force
from permopt.instance_io import bundled_instance
from permopt import scheduler
from permopt.lp import ITERATION_LIMIT, OPTIMAL, LpSolution, solve
from permopt.perms import (
    Permutation,
    all_permutations,
    birkhoff_extension,
    chain_transform_constraints,
)
from permopt.scheduler import (
    CUTTING_PLANE,
    EXTENDED,
    Schedule,
    VALUE_TOL,
    SolveError,
    _repair_subset_dp,
    build_master_lp,
    evaluate_schedule,
    master_lp_value,
    master_lp_value_fixed_y,
    solve_schedule,
)
from permopt.subproblems import (
    FlowInstance,
    InstanceError,
    MatchingInstance,
    make_instance,
    step_value,
)


def rescaled(instance, scale, rng):
    """The instance with each weight or capacity v replaced by
    (v + a uniform fraction) * scale."""
    data = instance.data
    if instance.family == "matching":
        weights = {e: (w + rng.random()) * scale for e, w in data.weights.items()}
        return replace(instance, data=replace(data, weights=weights))
    caps = {a: (c + rng.random()) * scale for a, c in data.capacities.items()}
    return replace(instance, data=replace(data, capacities=caps))


def order_to_perm(instance, order_ids):
    index = {e: i for i, e in enumerate(instance.orderable)}
    return Permutation.from_order([index[e] for e in order_ids])


def birkhoff_master_value(instance):
    """Optimum of the master LP with position variables tied to its chain
    columns by the chain transformation and held to a doubly-stochastic
    z-block: the reference formulation that the chain-only master program
    must match."""
    builder, h = build_master_lp(instance)
    m = instance.m
    y = [builder.add_var(f"y[{i}]", 1.0, float(m)) for i in range(m)]
    builder.add_all(chain_transform_constraints(m, y, h))
    _, cons = birkhoff_extension(m, y, builder)
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
        # each check is relative to the values it compares, so it holds
        # however small they are
        ((1e-12,), 1e-12, 1e-13),          # total is 10x the LP bound
        ((2e-12, 1e-12), 3e-12, None),     # steps decrease
        ((1e-12, 1e-12), 5e-10, None),     # total is not the sum of the steps
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
        inst = make_instance(data, [])
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

    def test_zero_capacity_arc(self):
        data = FlowInstance({0: (0, 2), 1: (2, 1), 2: (0, 1)}, {0: 0.0, 1: 3.0, 2: 1.0}, 0, 1)
        inst = make_instance(data, [])
        assert solve_schedule(inst).total == brute_force(inst).total

    @pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-6, 1e6, 1e12])
    def test_magnitude_keeps_the_optimum(self, scale):
        # the simplex works to absolute tolerances; weights and capacities
        # far from 1 must still give a certified optimum, never a wrong
        # total or an error
        for seed in range(6):
            for make in (random_matching_instance, random_flow_instance):
                inst = rescaled(make(random.Random(seed), 6), scale, random.Random(seed))
                s = solve_schedule(inst)
                assert s.certified
                assert s.total == pytest.approx(brute_force(inst).total, rel=1e-9, abs=0.0)

    def test_largest_finite_weight(self):
        # the power of two nearest 1.7e308 is 2.0 ** 1024, which overflows
        data = MatchingInstance({0: (0, 1)}, {0: 1.7e308}, frozenset({0}))
        s = solve_schedule(make_instance(data, []))
        assert (s.total, s.lp_bound, s.certified) == (1.7e308, 1.7e308, True)

    def test_overflowing_total_raises(self):
        # each step alone is finite, but the two steps sum to inf
        data = MatchingInstance({0: (0, 1), 1: (0, 2)}, {0: 1.7e308, 1: 1.0}, frozenset({0}))
        with pytest.raises(InstanceError, match="overflows"):
            solve_schedule(make_instance(data, []))

    def test_overflowing_value_of_all_elements_raises(self):
        # no weight overflows, but the two disjoint edges together do, so
        # the master's unit, the value of all elements, is inf
        data = MatchingInstance({0: (0, 1), 1: (2, 3)}, {0: 1.7e308, 1: 1.7e308},
                                frozenset({0, 2}))
        with pytest.raises(InstanceError, match="overflows"):
            solve_schedule(make_instance(data, []))

    def test_no_orderable_element(self):
        data = FlowInstance({0: (0, 2), 1: (2, 1)}, {0: 3.0, 1: 2.0}, 0, 1)
        s = solve_schedule(make_instance(data, [0, 1]))
        assert (s.order, s.step_values, s.total) == ((), (), 0.0)
        assert (s.lp_bound, s.certified, s.repaired) == (0.0, True, False)

    @pytest.mark.parametrize("big,unit", [(1e9, 1.0), (1e6, 1e-3)])
    def test_gap_judged_against_the_bound(self, big, unit):
        # the huge arc s->3 leads into a dead end; measured against the
        # largest capacity, the LP order's shortfall of one unit arc looked
        # like rounding and was certified without repair
        data = FlowInstance(
            arcs={0: (0, 3), 1: (0, 2), 2: (3, 4), 3: (2, 1)},
            capacities={0: big, 1: unit, 2: unit, 3: unit},
            source=0,
            sink=1,
        )
        inst = make_instance(data, [])
        s = solve_schedule(inst)
        assert s.total == brute_force(inst).total == pytest.approx(3 * unit, rel=1e-12)
        assert (s.certified, s.repaired) == (True, True)
        # the bound is the master program's optimum as HiGHS computes it,
        # 3.5 units: a fractional order builds half of arcs 1 and 3 in step 1
        ref = highs_optimum(build_master_lp(inst)[0].build("max"))
        assert ref == pytest.approx(3.5 * unit, rel=1e-9)
        assert s.lp_bound == pytest.approx(ref, rel=1e-9)

    def test_master_lp_failure_raises(self, monkeypatch):
        monkeypatch.setattr(scheduler, "lp_solve", lambda lp: LpSolution(ITERATION_LIMIT))
        with pytest.raises(SolveError, match="iteration_limit"):
            solve_schedule(bundled_instance("g1"))


def spiked(instance, factor, rng):
    """The instance with one weight or capacity, drawn by rng, multiplied
    by factor."""
    data = instance.data
    e = rng.choice(sorted(data.values))
    values = {**data.values, e: data.values[e] * factor}
    field = "weights" if instance.family == "matching" else "capacities"
    return replace(instance, data=replace(data, **{field: values}))


def assert_optimal_or_typed_error(instance):
    """solve_schedule gives brute force's total within VALUE_TOL of it, or
    raises a typed error; no other exception passes."""
    try:
        s = solve_schedule(instance)
    except (SolveError, InstanceError):
        return
    assert s.total == pytest.approx(brute_force(instance).total, rel=VALUE_TOL, abs=0.0)


class TestWideRange:
    """Values spread over many orders of magnitude within one instance. In
    units of the largest capacity, a huge arc made every useful reduced
    cost smaller than the simplex's tolerance, which certified short
    totals or raised an untyped ValueError."""

    @pytest.mark.parametrize("big,unit", [
        (1e9, 1.0), (1e6, 1e-3), (1e7, 1e-3), (1e10, 1.0), (1e5, 1e-4), (3e9, 2.0),
    ])
    def test_dead_end_arc_under_every_id_order(self, big, unit):
        # the network of test_gap_judged_against_the_bound, its four arcs
        # given the ids 0..3 in every order
        ends = ((0, 3), (0, 2), (3, 4), (2, 1))
        caps = (big, unit, unit, unit)
        for ids in itertools.permutations(range(4)):
            data = FlowInstance(dict(zip(ids, ends)), dict(zip(ids, caps)), 0, 1)
            assert_optimal_or_typed_error(make_instance(data, []))

    @pytest.mark.parametrize("k", [6, -6, 8, -8, 9, -9, 10, -10, 11, -11, 12, -12])
    @pytest.mark.parametrize("make,seeds", [(random_matching_instance, 2),
                                            (random_flow_instance, 3)],
                             ids=["matching", "flow"])
    def test_one_value_scaled_by_a_power_of_ten(self, make, seeds, k):
        for m in range(3, 8):
            for seed in range(seeds):
                rng = random.Random(f"{make.__name__}/{m}/{k}/{seed}")
                assert_optimal_or_typed_error(spiked(make(rng, m), 10.0 ** k, rng))


class TestRepairSubsetDp:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_brute_force(self, m):
        rng = random.Random(9100 + m)
        for inst in (random_matching_instance(rng, m), random_flow_instance(rng, m)):
            s = _repair_subset_dp(inst)
            assert (s.total, s.order) == walked(inst)

    def test_fixed_s_t_arc(self):
        # the fixed s-t arc gives every subset, the empty one included, a
        # value of at least 2; the random generators never draw this case
        data = FlowInstance(
            arcs={0: (0, 1), 1: (0, 2), 2: (2, 1), 3: (2, 1)},
            capacities={0: 2.0, 1: 3.0, 2: 1.0, 3: 4.0},
            source=0,
            sink=1,
        )
        inst = make_instance(data, [0])
        assert step_value(inst, ()) == 2.0
        s = _repair_subset_dp(inst)
        assert (s.total, s.order) == walked(inst)

    # brute force's pins: repair and brute force run one DP with one tie rule
    @pytest.mark.parametrize(
        "name,order",
        [
            ("g1", (1, 0, 2)),
            ("g2", (1, 3, 0, 2)),
            ("d1", (5, 3, 4)),
            ("d2", (4, 6, 3, 5)),
            ("d3", (7, 8, 1, 2, 3, 4, 5, 6)),
        ],
    )
    def test_bundled_orders(self, name, order):
        assert _repair_subset_dp(bundled_instance(name)).order == order

    def test_size_guard(self):
        inst = random_matching_instance(random.Random(3), 21)
        with pytest.raises(InstanceError, match="guard"):
            _repair_subset_dp(inst)
