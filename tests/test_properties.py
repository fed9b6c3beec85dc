"""Property tests over generated instances, run by hypothesis when it is
installed. Examples are derandomized and capped, so every run checks the
same cases."""

import random
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_flow_instance, random_matching_instance, walked  # noqa: E402
from permopt.baselines import brute_force, greedy_marginal, greedy_optimal_first  # noqa: E402
from permopt.scheduler import solve_schedule  # noqa: E402

METHODS = (solve_schedule, brute_force, greedy_marginal, greedy_optimal_first)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(make=st.sampled_from([random_matching_instance, random_flow_instance]),
       m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       k=st.sampled_from(range(-60, 61)))  # uniform, unlike integers(), which favours 0
def test_power_of_two_scaling_is_exact(make, m, seed, k):
    # multiplying every weight or capacity by 2^k is exact in floating
    # point, so every method must give the same order and exactly 2^k
    # times each value, however small or large the values become
    inst = make(random.Random(seed), m)
    scaled = replace(inst, data=inst.data.scaled(2.0 ** -k))
    factor = 2.0 ** k
    # brute force's order is the one that walking every order picks, and
    # so is the order of every repaired solve
    order = walked(inst)[1]
    assert brute_force(inst).order == order
    for method in METHODS:
        a, b = method(inst), method(scaled)
        if a.repaired:
            assert a.order == order
        assert b.order == a.order
        assert b.step_values == tuple(v * factor for v in a.step_values)
        assert b.total == a.total * factor
        if a.lp_bound is not None:
            assert b.lp_bound == a.lp_bound * factor
            assert b.certified
