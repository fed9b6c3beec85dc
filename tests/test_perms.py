import math
import random

import numpy as np
import pytest

from permopt.lp import EQ, LE, LinearConstraint, LpBuilder, OPTIMAL, solve
from permopt.perms import (
    ChainMatrix,
    Permutation,
    all_permutations,
    birkhoff_extension,
    chain_constraints,
    chain_from_permutation,
    chain_transform_constraints,
    permutation_from_point,
    rado_bound,
    random_permutahedron_point,
    separate_permutahedron,
)


def columns(cm: ChainMatrix):
    return [cm.column(j) for j in range(1, cm.m + 1)]


class TestChainFromPermutation:
    def test_identity(self):
        cm = chain_from_permutation(Permutation((1, 2, 3)))
        assert columns(cm) == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_swap(self):
        cm = chain_from_permutation(Permutation((2, 1)))
        assert columns(cm) == [(0, 1), (1, 1)]

    def test_singleton(self):
        assert columns(chain_from_permutation(Permutation((1,)))) == [(1,)]

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestPermutationFromPoint:
    def test_identity(self):
        assert permutation_from_point([1, 2, 3]).positions == (1, 2, 3)

    def test_swap(self):
        assert permutation_from_point([2.0, 1.0]).positions == (2, 1)

    def test_tie_breaks_by_index(self):
        assert permutation_from_point([1.5, 1.5, 3.0]).positions == (1, 2, 3)

    def test_round_trip_all_small(self):
        for p in all_permutations(4):
            assert permutation_from_point([float(v) for v in p.positions]) == p

    def test_round_trip_near_integral(self):
        p = Permutation((3, 1, 2))
        y = [v + 1e-7 * (-1) ** v for v in p.positions]
        assert permutation_from_point(y) == p


class TestRadoBound:
    def test_full_set(self):
        assert rado_bound(3, 3) == 6

    def test_single_element(self):
        assert rado_bound(3, 1) == 3

    def test_pair(self):
        assert rado_bound(4, 2) == 7

    def test_full_set_matches_equality(self):
        for m in range(1, 8):
            assert rado_bound(m, m) == math.comb(m + 1, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rado_bound(3, 0)
        with pytest.raises(ValueError):
            rado_bound(3, 4)


class TestSeparation:
    def test_vertex_feasible(self):
        assert separate_permutahedron(2, [1, 2]) is None

    def test_single_coordinate_violation(self):
        cut = separate_permutahedron(2, [0.5, 2.5])
        assert cut is not None
        assert cut.coefficients == {1: 1.0}
        assert cut.rhs == 2.0

    def test_barycenter_feasible(self):
        assert separate_permutahedron(2, [1.5, 1.5]) is None

    def test_sum_equality_checked_first(self):
        cut = separate_permutahedron(3, [1, 2, 2])
        assert cut is not None
        assert cut.relation == EQ
        assert cut.rhs == 6.0


def h_vars_on(builder, m):
    return [[builder.add_var(f"h[{i},{j}]") for j in range(m)] for i in range(m)]


class TestChainTransform:
    def test_constraint_counts(self):
        m = 4
        b = LpBuilder()
        y = b.add_vars(m, "y")
        h = h_vars_on(b, m)
        cons = chain_transform_constraints(m, y, h)
        assert len(cons) == m * (m - 1) + m + m * m + 2 * m * m

    def test_m1_forces_unit(self):
        b = LpBuilder()
        y = [b.add_var("y", 1.0, 1.0)]
        h = [[b.add_var("h")]]
        b.add_all(chain_transform_constraints(1, y, h))
        sol = solve(b.build("max"))
        assert sol.status == OPTIMAL
        assert sol.x[h[0][0]] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("positions", [(1, 2), (2, 1), (2, 1, 3)])
    def test_unique_feasible_point_is_chain(self, positions):
        # fix y to the permutation, then max and min every h coordinate
        m = len(positions)
        expected = chain_from_permutation(Permutation(positions))
        for i in range(m):
            for j in range(m):
                for sense in ("max", "min"):
                    b = LpBuilder()
                    y = [b.add_var(f"y[{k}]", positions[k], positions[k]) for k in range(m)]
                    h = h_vars_on(b, m)
                    b.add_all(chain_transform_constraints(m, y, h))
                    b.set_objective(h[i][j], 1.0)
                    sol = solve(b.build(sense))
                    assert sol.status == OPTIMAL
                    assert sol.objective == pytest.approx(expected.h[i][j], abs=1e-7)

    def test_forward_direction_exhaustive_small(self):
        # every permutation's chain satisfies the system with y = positions
        for m in range(1, 6):
            for p in all_permutations(m):
                assert chain_satisfies(p)

    def test_forward_direction_random_larger(self):
        rng = random.Random(3)
        for _ in range(20):
            m = rng.randint(7, 12)
            order = list(range(m))
            rng.shuffle(order)
            assert chain_satisfies(Permutation.from_order(order))


def chain_satisfies(p: Permutation) -> bool:
    m = p.m
    cm = chain_from_permutation(p)
    point = {}
    y_ids = list(range(m))
    h_ids = [[m + i * m + j for j in range(m)] for i in range(m)]
    for i in range(m):
        point[y_ids[i]] = float(p.positions[i])
        for j in range(m):
            point[h_ids[i][j]] = float(cm.h[i][j])
    cons = chain_transform_constraints(m, y_ids, h_ids)
    return all(c.satisfied(point, 1e-9) for c in cons)


class TestBirkhoffExtension:
    def test_m1(self):
        b = LpBuilder()
        y = [b.add_var("y", 1.0, 1.0)]
        z, cons = birkhoff_extension(1, y, b)
        b.add_all(cons)
        sol = solve(b.build("max"))
        assert sol.status == OPTIMAL
        assert sol.x[z[0][0]] == pytest.approx(1.0, abs=1e-9)

    def test_m2_segment(self):
        # feasible y sweeps the segment between (1,2) and (2,1)
        for target, feasible in [(1.0, True), (1.5, True), (2.0, True),
                                 (0.9, False), (2.1, False)]:
            b = LpBuilder()
            y = [b.add_var("y0", target, target), b.add_var("y1", 1.0, 2.0)]
            _, cons = birkhoff_extension(2, y, b)
            b.add_all(cons)
            sol = solve(b.build("max"))
            assert (sol.status == OPTIMAL) == feasible

    def test_integral_permutation_matrix(self):
        positions = (2, 3, 1)
        b = LpBuilder()
        y = [b.add_var(f"y[{i}]", 1.0, 3.0) for i in range(3)]
        z, cons = birkhoff_extension(3, y, b)
        b.add_all(cons)
        for i, pos in enumerate(positions):
            for j in range(3):
                val = 1.0 if j + 1 == pos else 0.0
                b.lower[z[i][j]] = b.upper[z[i][j]] = val
        sol = solve(b.build("max"))
        assert sol.status == OPTIMAL
        assert [round(sol.x[v]) for v in y] == list(positions)


def membership_by_extension(m, point) -> bool:
    b = LpBuilder()
    y = [b.add_var(f"y[{i}]", point[i], point[i]) for i in range(m)]
    _, cons = birkhoff_extension(m, y, b)
    b.add_all(cons)
    return solve(b.build("max")).status == OPTIMAL


def membership_by_chain(m, point) -> bool:
    """The chain rows alone, h in [0, 1], with sum_j h[i][j] = m + 1 - y_i:
    the system the master LP relies on to hold its positions."""
    b = LpBuilder()
    h = [[b.add_var(f"h[{i},{j}]", 0.0, 1.0) for j in range(m)] for i in range(m)]
    b.add_all(chain_constraints(m, h))
    for i in range(m):
        b.add(LinearConstraint({v: 1.0 for v in h[i]}, EQ, m + 1 - float(point[i])))
    return solve(b.build("max")).status == OPTIMAL


class TestMembershipAgreement:
    def test_separation_matches_extension(self):
        rng = np.random.default_rng(5)
        prefix_only = 0  # outside points on the position-sum hyperplane
        for m in (2, 3, 4, 5):
            for k in range(90):
                if k % 3 == 0:
                    point = rng.uniform(1.0, m, size=m)
                elif k % 3 == 1:
                    point = random_permutahedron_point(m, rng)
                else:
                    point = rng.uniform(1.0, m, size=m)
                    point *= math.comb(m + 1, 2) / point.sum()
                inside = separate_permutahedron(m, point, 1e-7) is None
                assert inside == membership_by_extension(m, point)
                assert inside == membership_by_chain(m, point)
                if k % 3 == 2 and not inside:
                    prefix_only += 1
        assert prefix_only > 0
