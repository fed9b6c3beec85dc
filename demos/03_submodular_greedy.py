"""Unconstrained monotone-submodular ordering: greedy vs its guarantee.

A set function is an instance of the coverage family, so the step-j value
of an ordering is f of its first j elements, and the greedy and exact
solvers are the ones every family uses. Greedy-by-marginal-gain carries a
provable guarantee: total >= ratio_bound(m) * optimum, with ratio_bound(m)
decreasing to 1/e from above.

Run: python3 demos/03_submodular_greedy.py
"""

import math
import random

from permopt import CoverageInstance, brute_force, greedy_marginal, make_instance, ratio_bound

print("--- the guarantee curve ---")
for m in (1, 2, 4, 8, 16, 100, 10_000):
    print(f"  m={m:6d}: ratio_bound = {ratio_bound(m):.6f}")
print(f"  1/e       = {1/math.e:.6f}")

print("\n--- random coverage functions ---")
rng = random.Random(7)
worst = 1.0
for trial in range(20):
    m = rng.randint(4, 7)
    covers = {e: frozenset(u for u in range(12) if rng.random() < 0.35) for e in range(m)}
    f = make_instance(CoverageInstance(covers, dict.fromkeys(range(12), 1.0)), [])
    greedy = greedy_marginal(f)
    optimum = brute_force(f).total
    ratio = greedy.total / optimum if optimum else 1.0
    worst = min(worst, ratio)
    assert greedy.total >= ratio_bound(m) * optimum - 1e-9
print(f"  20 instances checked; worst greedy/optimum ratio observed: {worst:.4f}")
print(f"  (the guarantee only promises {ratio_bound(7):.4f} at m=7 -- greedy does")
print("   much better in practice; whether 1/e is tight is open)")
