import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    additive_function,
    cold_greedy,
    enumerated_best_order,
    prefix_values,
    random_coverage_function,
    random_flow_instance,
    random_matching_instance,
    random_network_instance,
    scalar_best_order,
    subset_values,
)
from permopt.baselines import brute_force, greedy_marginal, greedy_optimal_first, ratio_bound
from permopt import subproblems
from permopt.instance_io import bundled_instance
from permopt.scheduler import _repair_subset_dp, evaluate_schedule, solve_schedule
from permopt.subproblems import (
    CoverageInstance,
    FlowInstance,
    InstanceError,
    MatchingInstance,
    _best_order,
    make_instance,
)
from test_scheduler import order_to_perm


class TestGreedyMarginal:
    @pytest.mark.parametrize("name,total", [("g1", 5.8), ("g2", 5.5), ("d1", 5.9), ("d2", 5.5)])
    def test_totals(self, name, total):
        assert greedy_marginal(bundled_instance(name)).total == pytest.approx(total)

    def test_g1_picks_heavy_edge_first(self):
        assert greedy_marginal(bundled_instance("g1")).order[0] == 1

    @pytest.mark.parametrize("name,order", [
        ("g1", (1, 0, 2)),
        ("g2", (0, 2, 1, 3)),
        ("d1", (5, 3, 4)),
        ("d2", (3, 5, 4, 6)),
        ("d3", (1, 2, 3, 4, 5, 6, 7, 8)),
    ])
    def test_bundled_orders(self, name, order):
        assert greedy_marginal(bundled_instance(name)).order == order


class TestGreedyOptimalFirst:
    @pytest.mark.parametrize("name,total", [("g1", 5.0), ("g2", 7.0), ("d1", 5.0)])
    def test_totals(self, name, total):
        assert greedy_optimal_first(bundled_instance(name)).total == pytest.approx(total)

    # the order reads the support of one cold run of the family's oracle:
    # `grow` from the zero flow, or `best_matching`
    @pytest.mark.parametrize("name,order", [
        ("g1", (0, 2, 1)),
        ("g2", (1, 3, 0, 2)),
        ("d1", (3, 4, 5)),
        ("d2", (3, 5, 4, 6)),
        ("d3", (1, 2, 3, 4, 5, 6, 7, 8)),
    ])
    def test_bundled_orders(self, name, order):
        assert greedy_optimal_first(bundled_instance(name)).order == order

    def test_g1_realizes_outer_edges_first(self):
        s = greedy_optimal_first(bundled_instance("g1"))
        assert set(s.order[:2]) == {0, 2}

    def test_unit_path_beside_a_huge_arc_stays_in_the_support(self):
        # arc 0 is a 1e10 s->t arc, arc 1 a dead end, arcs 2 and 3 a unit
        # s->2->t path: the path carries flow, so it is realized before arc 1
        data = FlowInstance({0: (0, 1), 1: (0, 3), 2: (0, 2), 3: (2, 1)},
                            {0: 1e10, 1: 1.0, 2: 1.0, 3: 1.0}, 0, 1)
        s = greedy_optimal_first(make_instance(data, []))
        assert s.order == (0, 2, 3, 1)
        assert s.total == 4e10 + 2.0


class TestBruteForce:
    @pytest.mark.parametrize("name,total", [("g1", 5.8), ("g2", 7.0), ("d1", 5.9), ("d3", 6.4)])
    def test_totals(self, name, total):
        assert brute_force(bundled_instance(name)).total == pytest.approx(total)

    def test_single_element(self):
        data = MatchingInstance({0: (0, 1)}, {0: 3.0}, frozenset({0}))
        inst = make_instance(data, [])
        s = brute_force(inst)
        assert s.total == pytest.approx(3.0)
        assert s.permutation.positions == (1,)

    def test_guard(self):
        # m = 10: brute force is the repair up to the subset table's guard
        left = frozenset(range(5))
        edges = {e: (e % 5, 10 + e) for e in range(10)}
        weights = {e: 1.0 for e in range(10)}
        inst = make_instance(MatchingInstance(edges, weights, left), [])
        s = brute_force(inst)
        assert s == replace(_repair_subset_dp(inst), method="brute")
        assert s.total == solve_schedule(inst).total == 1 + 2 + 3 + 4 + 5 * 6

    @pytest.mark.parametrize("m", [10, 12])
    @pytest.mark.parametrize("make", [random_matching_instance, random_flow_instance],
                             ids=["matching", "flow"])
    def test_is_the_repair_at_m_10_and_12(self, make, m):
        inst = make(random.Random(f"brute/{m}"), m)
        s = brute_force(inst)
        assert s == replace(_repair_subset_dp(inst), method="brute")
        assert s.total == solve_schedule(inst).total

    def test_subset_table_guard(self):
        with pytest.raises(InstanceError, match="guard"):
            brute_force(random_flow_instance(random.Random(3), 21))
        with pytest.raises(InstanceError, match="guard"):
            brute_force(additive_function((1.0,) * 21))

    def test_greedy_never_beats_brute(self, rng):
        from conftest import random_matching_instance

        for _ in range(5):
            inst = random_matching_instance(rng, rng.randint(2, 5))
            best = brute_force(inst).total
            assert greedy_marginal(inst).total <= best + 1e-9
            assert greedy_optimal_first(inst).total <= best + 1e-9


def walk_instances(m):
    """Matchings, flows with 0-2 fixed arcs and networks with zero and
    uncapacitated arcs, parallel arcs and arcs into the source, at m
    orderable elements; integral values, so a walk that grows each set's
    value from its predecessor's reads exactly the cold oracle's values."""
    for seed in range(3):
        rng = random.Random(f"walk/{m}/{seed}")
        yield random_matching_instance(rng, m)
        for n_fixed in (0, 1, 2):
            yield random_flow_instance(rng, m, n_fixed)
            yield random_network_instance(rng, m, n_fixed)


class TestWarmWalks:
    """Schedules read their values along one walk of the family's `grow`;
    the cold oracle, one `step_value` call per set, gives the same values."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_evaluate_schedule_equals_step_value_on_each_prefix(self, m):
        rng = random.Random(9700 + m)
        for inst in walk_instances(m):
            for _ in range(3):
                order = tuple(rng.sample(inst.orderable, m))
                s = evaluate_schedule(inst, order_to_perm(inst, order))
                assert s.order == order
                assert s.step_values == prefix_values(inst, order)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_greedies_equal_the_cold_reference(self, m):
        for inst in walk_instances(m):
            support = inst.data.support(inst.data.elements) & set(inst.orderable)
            rest = [e for e in inst.orderable if e not in support]
            for s, pools in ((greedy_marginal(inst), [inst.orderable]),
                             (greedy_optimal_first(inst), [sorted(support), rest])):
                order = tuple(cold_greedy(inst, pools))
                assert s.order == order
                assert s.step_values == prefix_values(inst, order)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_brute_force_is_the_repair(self, m):
        for inst in walk_instances(m):
            assert brute_force(inst) == replace(_repair_subset_dp(inst), method="brute")


class TestBestOrder:
    """The subset DP returns the order, and the total bit for bit, that
    walking all m! orders returns."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_generator_tables(self, m):
        rng = random.Random(9300 + m)
        for _ in range(4):
            for make in (random_matching_instance, random_flow_instance):
                table = subset_values(make(rng, m))
                for scale in (1.0, 1e-13, 0.1, 3.0):
                    scaled = [v * scale for v in table]
                    assert _best_order(scaled, m) == enumerated_best_order(scaled, m)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_additive_with_repeated_weights(self, m):
        # few distinct weights, so many orders tie for the best total
        rng = random.Random(9400 + m)
        for _ in range(6):
            f = additive_function(tuple(rng.choice((0.0, 0.1, 1.0, 1.0, 2.0)) for _ in range(m)))
            table = subset_values(f)
            walked = enumerated_best_order(table, m)
            assert _best_order(table, m) == walked
            assert brute_force(f).total == walked[0]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_coverage(self, m):
        rng = random.Random(9500 + m)
        for _ in range(6):
            f = random_coverage_function(rng, m)
            table = subset_values(f)
            walked = enumerated_best_order(table, m)
            assert _best_order(table, m) == walked
            assert brute_force(f).total == walked[0]

    @pytest.mark.parametrize("name,order", [
        ("g1", (1, 0, 2)),
        ("g2", (1, 3, 0, 2)),
        ("d1", (5, 3, 4)),
        ("d2", (4, 6, 3, 5)),
        ("d3", (7, 8, 1, 2, 3, 4, 5, 6)),
    ])
    def test_bundled_orders(self, name, order):
        assert brute_force(bundled_instance(name)).order == order

    def test_lookups_grow_as_m_times_2_to_the_m(self):
        # the scalar reference DP; walking all 9! orders would take
        # 9! * 9 = 3 265 920 lookups
        class CountingList(list):
            lookups = 0

            def __getitem__(self, mask):
                CountingList.lookups += 1
                return super().__getitem__(mask)

        m = 9
        f = random_coverage_function(random.Random(9600), m)
        scalar_best_order(CountingList(subset_values(f)), m)
        assert 0 < CountingList.lookups <= 2 * m * 2**m

    def test_holds_no_m_by_2_to_the_m_array(self):
        # about 28 bytes per mask at m = 18: the table, popcounts, the masks
        # sorted by popcount, tail, table + tail, and one block's
        # temporaries; an m x 2^m index array alone would add 8m = 144
        m = 18
        table = np.random.default_rng(9700).integers(0, 4, 1 << m).astype(float)
        tracemalloc.start()
        try:
            _best_order(table, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**m


def same(got, want) -> bool:
    """Equal orders, and totals equal bit for bit."""
    return got[1] == want[1] and got[0].hex() == want[0].hex()


class TestNumpyDp:
    """The numpy DP takes the scalar reference's float operations and tie
    rule, so it returns the same order and the same total bit for bit."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_subset_tables(self, m):
        rng = random.Random(9800 + m)
        for n_fixed in (0, 1, 2):
            for inst in (random_flow_instance(rng, m, n_fixed),
                         random_network_instance(rng, m, n_fixed),
                         random_matching_instance(rng, m)):
                table = subset_values(inst)
                for scale in (1.0, 0.1, 3.0):
                    scaled = [v * scale for v in table]
                    assert same(_best_order(scaled, m), scalar_best_order(scaled, m))

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_tie_heavy_tables(self, k):
        # four values per mask, so most masks tie with several others
        m = 10
        for seed in range(20):
            rng = random.Random(f"ties/{k}/{seed}")
            table = [rng.randint(0, 3) * 2.0**k for _ in range(1 << m)]
            assert same(_best_order(table, m), scalar_best_order(table, m))

    def test_near_ties_take_the_scan(self, monkeypatch):
        # values 2^-41 and 2^-40 apart, within 1e-12 of each other, so
        # the maximum alone would not say which candidate the scan keeps
        scans = []
        scan = subproblems._scan
        monkeypatch.setattr(subproblems, "_scan", lambda cand: scans.append(cand) or scan(cand))
        m = 10
        for seed in range(20):
            rng = random.Random(f"near/{seed}")
            table = [rng.choice((1.0, 1.0 + 2**-41, 1.0 + 2**-40, 2.0)) for _ in range(1 << m)]
            assert same(_best_order(table, m), scalar_best_order(table, m))
        assert scans

    @pytest.mark.parametrize("table,m", [([0.0], 0), ([5.0], 0), ([0.0, 2.5], 1)])
    def test_m_0_and_1(self, table, m):
        assert same(_best_order(table, m), scalar_best_order(table, m))
        assert _best_order(table, m) == (table[-1] if m else 0.0, tuple(range(m)))


class TestSuboptimalityWitnesses:
    def test_g1_first_strategy_gap(self):
        ratio = greedy_optimal_first(bundled_instance("g1")).total / brute_force(
            bundled_instance("g1")
        ).total
        assert ratio == pytest.approx(5.0 / 5.8)
        assert ratio < 5.0 / 6.0 + 0.05

    def test_g2_marginal_gap(self):
        ratio = greedy_marginal(bundled_instance("g2")).total / brute_force(
            bundled_instance("g2")
        ).total
        assert ratio == pytest.approx(5.5 / 7.0)

    def test_d3_unlucky_ordering_gap(self):
        inst = bundled_instance("d3")
        unlucky = evaluate_schedule(inst, order_to_perm(inst, [1, 2, 3, 4, 5, 6, 7, 8]))
        best = brute_force(inst).total
        assert unlucky.total == pytest.approx(3.0)
        assert best == pytest.approx(6.4)
        assert unlucky.total / best < 0.5


class TestSubmodularGreedy:
    """Set functions are coverage instances, solved by the same greedy and
    exact engine as every other family."""

    def test_additive_sorts_by_weight(self):
        s = greedy_marginal(additive_function((3.0, 2.0, 1.0)))
        assert s.order == (0, 1, 2)
        assert s.step_values == pytest.approx((3.0, 5.0, 6.0))
        assert s.total == pytest.approx(14.0)

    def test_coverage_larger_set_first(self):
        f = CoverageInstance({0: frozenset({0, 1}), 1: frozenset({2})}, dict.fromkeys(range(3), 1.0))
        s = greedy_marginal(make_instance(f, []))
        assert s.order == (0, 1)
        assert s.total == pytest.approx(2.0 + 3.0)

    def test_negative_additive_weights_rejected(self):
        with pytest.raises(InstanceError):
            additive_function((1.0, -2.0))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_additive_weights_rejected(self, weight):
        with pytest.raises(InstanceError):
            additive_function((weight, 1.0))

    def test_overflowing_total_raises(self):
        # each weight is finite, but every order's total overflows a float
        f = additive_function((1.7e308, 1.7e308))
        with pytest.raises(InstanceError):
            greedy_marginal(f)
        with pytest.raises(InstanceError):
            brute_force(f)

    def test_ratio_bound_holds_random_coverage(self, rng):
        for _ in range(10):
            m = rng.randint(3, 6)
            f = random_coverage_function(rng, m)
            greedy_total = greedy_marginal(f).total
            optimum = brute_force(f).total
            assert greedy_total >= ratio_bound(m) * optimum - 1e-9


class TestRatioBound:
    def test_m1(self):
        assert ratio_bound(1) == pytest.approx(1.0)

    def test_m2(self):
        assert ratio_bound(2) == pytest.approx(0.625)

    def test_m4(self):
        assert ratio_bound(4) == pytest.approx(0.4873046875)

    def test_strictly_decreasing_above_inv_e(self):
        prev = ratio_bound(1)
        for m in range(2, 200):
            cur = ratio_bound(m)
            assert cur < prev
            assert cur > 1.0 / math.e
            prev = cur
