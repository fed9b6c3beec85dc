"""Tour of the polyhedral building blocks.

1. Chain matrices: how an ordering induces a nested family of realized
   sets, and the linear system that pins the chain given the positions.
2. The position polytope: prefix-sum separation vs the compact
   doubly-stochastic extension.
3. A fractional master-LP optimum, its positions read off the chain
   columns: the relaxation can sit strictly above the best schedule,
   which is why certification and repair exist.

Run: python3 demos/02_polyhedra.py
"""

import numpy as np

import permopt as P
from permopt.lp import LpBuilder, OPTIMAL, solve
from permopt.perms import birkhoff_extension
from permopt.scheduler import build_master_lp, chain_positions

print("--- chain of an ordering ---")
p = P.Permutation((2, 1, 3))
cm = P.chain_from_permutation(p)
print(f"positions {p.positions} -> chain columns:")
for j in range(1, 4):
    print(f"  step {j}: {cm.column(j)}  realized {sorted(cm.realized(j))}")

print("\n--- separation on the position polytope ---")
for y in ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.5, 2.5, 3.0], [3.0, 3.0, 0.0]):
    cut = P.separate_permutahedron(3, y)
    verdict = "inside" if cut is None else f"violates {cut.name}: {cut.coefficients} {cut.relation} {cut.rhs}"
    print(f"  y={y}: {verdict}")

print("\n--- membership via the doubly-stochastic extension ---")
rng = np.random.default_rng(42)
agree = 0
for _ in range(200):
    y = rng.uniform(1.0, 3.0, size=3)
    b = LpBuilder()
    yv = [b.add_var(f"y[{i}]", y[i], y[i]) for i in range(3)]
    _, cons = birkhoff_extension(3, yv, b)
    b.add_all(cons)
    inside_ext = solve(b.build("max")).status == OPTIMAL
    inside_sep = P.separate_permutahedron(3, y) is None
    agree += int(inside_ext == inside_sep)
print(f"  separation and extension agree on {agree}/200 random points")

print("\n--- the relaxation gap on g1 ---")
inst = P.bundled_instance("g1")
b, h = build_master_lp(inst)
sol = solve(b.build("max"))
y = [round(float(v), 3) for v in chain_positions(h, sol.x)]
print(f"  master LP optimum {sol.objective:.4f} at fractional positions y={y}")
s = P.solve_schedule(inst)
print(f"  best schedule total {s.total:.4f} (certified={s.certified}, repaired={s.repaired})")
print("  per-step LP values are concave in the availability column, so fractional")
print("  positions can overestimate; extraction + exact repair closes the gap.")
