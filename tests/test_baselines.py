import math
import random

import pytest

from conftest import (
    enumerated_best_order,
    random_coverage_function,
    random_flow_instance,
    random_matching_instance,
    set_function_table,
)
from permopt.baselines import (
    GuardError,
    SetFunctionSpec,
    _best_order,
    brute_force,
    brute_force_set_function,
    greedy_marginal,
    greedy_optimal_first,
    ratio_bound,
    submodular_greedy,
)
from permopt.instance_io import bundled_instance
from permopt.scheduler import evaluate_schedule
from permopt.subproblems import FlowInstance, MatchingInstance, make_instance, subset_values
from test_scheduler import order_to_perm


class TestGreedyMarginal:
    @pytest.mark.parametrize("name,total", [("g1", 5.8), ("g2", 5.5), ("d1", 5.9), ("d2", 5.5)])
    def test_totals(self, name, total):
        assert greedy_marginal(bundled_instance(name)).total == pytest.approx(total)

    def test_g1_picks_heavy_edge_first(self):
        assert greedy_marginal(bundled_instance("g1")).order[0] == 1


class TestGreedyOptimalFirst:
    @pytest.mark.parametrize("name,total", [("g1", 5.0), ("g2", 7.0), ("d1", 5.0)])
    def test_totals(self, name, total):
        assert greedy_optimal_first(bundled_instance(name)).total == pytest.approx(total)

    # the order reads the support of one `max_flow` or `best_matching` run
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
        left = frozenset(range(5))
        edges = {e: (e % 5, 10 + e) for e in range(10)}
        weights = {e: 1.0 for e in range(10)}
        inst = make_instance(MatchingInstance(edges, weights, left), [])
        with pytest.raises(GuardError):
            brute_force(inst)

    def test_greedy_never_beats_brute(self, rng):
        from conftest import random_matching_instance

        for _ in range(5):
            inst = random_matching_instance(rng, rng.randint(2, 5))
            best = brute_force(inst).total
            assert greedy_marginal(inst).total <= best + 1e-9
            assert greedy_optimal_first(inst).total <= best + 1e-9


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
            f = SetFunctionSpec("additive", weights=tuple(
                rng.choice((0.0, 0.1, 1.0, 1.0, 2.0)) for _ in range(m)))
            table = set_function_table(f)
            walked = enumerated_best_order(table, m)
            assert _best_order(table, m) == walked
            assert brute_force_set_function(f) == walked[0]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_coverage(self, m):
        rng = random.Random(9500 + m)
        for _ in range(6):
            f = random_coverage_function(rng, m)
            table = set_function_table(f)
            walked = enumerated_best_order(table, m)
            assert _best_order(table, m) == walked
            assert brute_force_set_function(f) == walked[0]

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
        # walking all 9! orders would take 9! * 9 = 3 265 920 lookups
        class CountingList(list):
            lookups = 0

            def __getitem__(self, mask):
                CountingList.lookups += 1
                return super().__getitem__(mask)

        m = 9
        f = random_coverage_function(random.Random(9600), m)
        _best_order(CountingList(set_function_table(f)), m)
        assert 0 < CountingList.lookups <= 2 * m * 2**m


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
    def test_additive_sorts_by_weight(self):
        f = SetFunctionSpec("additive", weights=(3.0, 2.0, 1.0))
        s = submodular_greedy(f)
        assert s.order == (0, 1, 2)
        assert s.step_values == pytest.approx((3.0, 5.0, 6.0))
        assert s.total == pytest.approx(14.0)

    def test_coverage_larger_set_first(self):
        f = SetFunctionSpec("coverage", covers=(frozenset({0, 1}), frozenset({2})))
        s = submodular_greedy(f)
        assert s.order == (0, 1)
        assert s.total == pytest.approx(2.0 + 3.0)

    def test_negative_additive_weights_rejected(self):
        with pytest.raises(ValueError):
            SetFunctionSpec("additive", weights=(1.0, -2.0))

    def test_ratio_bound_holds_random_coverage(self, rng):
        for _ in range(10):
            m = rng.randint(3, 6)
            f = random_coverage_function(rng, m)
            greedy_total = submodular_greedy(f).total
            optimum = brute_force_set_function(f)
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
