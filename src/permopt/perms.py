"""Permutations, chains, and the two polyhedral building blocks.

A permutation assigns each of m orderable elements a distinct step in
{1,...,m}. Its chain matrix collects the 0/1 indicator columns of the
growing realized sets, one column per step. The polytope of relaxed
position vectors (the permutahedron) is described three ways: an
exponential family of sorted prefix-sum inequalities with a sorting-based
separation routine, a compact doubly-stochastic extension, and implicitly
by the chain system alone. Column monotonicity, column cardinalities and
[0, 1] bounds make the chain columns a unimodular image of the Birkhoff
polytope (z[i][j] = h[i][j] - h[i][j-1]), so the positions
y_i = m + 1 - sum_j h[i][j] range over the permutahedron exactly. The
master LP uses only the chain system; the other two serve as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import EQ, GE, LE, LinearConstraint


@dataclass(frozen=True)
class Permutation:
    """positions[i] = step at which element i is realized (1-based)."""

    positions: tuple

    def __post_init__(self):
        m = len(self.positions)
        if sorted(self.positions) != list(range(1, m + 1)):
            raise ValueError(f"positions {self.positions} is not a bijection onto 1..{m}")

    @property
    def m(self) -> int:
        return len(self.positions)

    def order(self) -> tuple:
        """Element indices sorted by realization step."""
        return tuple(sorted(range(self.m), key=lambda i: self.positions[i]))

    @staticmethod
    def from_order(order) -> "Permutation":
        positions = [0] * len(order)
        for step, elem in enumerate(order, start=1):
            positions[elem] = step
        return Permutation(tuple(positions))


@dataclass(frozen=True)
class ChainMatrix:
    """h[i][j] = 1 iff element i is realized by step j+1 (columns 0-indexed)."""

    h: tuple  # m rows, each a tuple of m 0/1 entries

    def __post_init__(self):
        m = len(self.h)
        for j in range(m):
            col = [self.h[i][j] for i in range(m)]
            if sum(col) != j + 1:
                raise ValueError(f"column {j} has {sum(col)} ones, expected {j + 1}")
        for i in range(m):
            for j in range(m - 1):
                if self.h[i][j] > self.h[i][j + 1]:
                    raise ValueError(f"row {i} decreases between columns {j} and {j + 1}")

    @property
    def m(self) -> int:
        return len(self.h)

    def column(self, j) -> tuple:
        """Indicator of the set realized by step j (1-based)."""
        return tuple(self.h[i][j - 1] for i in range(self.m))

    def realized(self, j) -> frozenset:
        return frozenset(i for i in range(self.m) if self.h[i][j - 1] == 1)


def chain_from_permutation(p: Permutation) -> ChainMatrix:
    m = p.m
    return ChainMatrix(
        tuple(tuple(1 if p.positions[i] <= j else 0 for j in range(1, m + 1)) for i in range(m))
    )


def permutation_from_point(y) -> Permutation:
    """Rank elements by ascending y, ties broken by ascending index.

    If each entry of y differs from an integral permutation vector by less
    than 0.5, the result round-trips exactly.
    """
    y = list(y)
    order = sorted(range(len(y)), key=lambda i: (y[i], i))
    return Permutation.from_order(order)


def rado_bound(m: int, k: int) -> int:
    """Upper bound on the position sum of any k elements: the k largest
    steps are m, m-1, ..., m-k+1."""
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    return math.comb(m + 1, 2) - math.comb(m + 1 - k, 2)


def separate_permutahedron(m: int, y, tolerance: float = 1e-7):
    """Return the most violated position-polytope constraint at y, or None.

    Checks the total-sum equality first, then, for each cardinality k, the
    prefix-sum bound attained by the k largest entries of y (the most
    violated subset of size k is always the top-k set, so sorting suffices).
    """
    y = list(y)
    if len(y) != m:
        raise ValueError("dimension mismatch")
    total = math.comb(m + 1, 2)
    s = sum(y)
    if abs(s - total) > tolerance:
        return LinearConstraint({i: 1.0 for i in range(m)}, EQ, float(total), name="position-sum")
    idx = sorted(range(m), key=lambda i: (-y[i], i))
    best = None
    prefix = 0.0
    for k in range(1, m + 1):
        prefix += y[idx[k - 1]]
        excess = prefix - rado_bound(m, k)
        if excess > tolerance and (best is None or excess > best[0]):
            best = (excess, k)
    if best is None:
        return None
    k = best[1]
    subset = sorted(idx[:k])
    return LinearConstraint(
        {i: 1.0 for i in subset},
        LE,
        float(rado_bound(m, k)),
        name=f"prefix-sum|S|={k}",
    )


def chain_constraints(m: int, h_vars):
    """Column monotonicity rows, then column cardinality equalities.

    h_vars[i][j] is the variable for element i in column j (0-indexed
    columns; the implicit all-zero column before step 1 is substituted out).
    """
    if len(h_vars) != m or any(len(row) != m for row in h_vars):
        raise ValueError("variable-id arrays malformed")
    cons = []
    for i in range(m):
        for j in range(m - 1):
            cons.append(
                LinearConstraint(
                    {h_vars[i][j]: 1.0, h_vars[i][j + 1]: -1.0}, LE, 0.0,
                    name=f"mono[{i},{j}]",
                )
            )
    for j in range(m):
        cons.append(
            LinearConstraint(
                {h_vars[i][j]: 1.0 for i in range(m)}, EQ, float(j + 1),
                name=f"card[{j}]",
            )
        )
    return cons


def chain_transform_constraints(m: int, y_vars, h_vars):
    """Linear system tying position variables y to chain columns h: the
    rows of `chain_constraints`, prefix covering inequalities, [0,1] boxes."""
    if len(y_vars) != m:
        raise ValueError("variable-id arrays malformed")
    cons = chain_constraints(m, h_vars)
    for j in range(m):
        for i in range(m):
            # sum_{k<=j} h[i][k] + y_i >= j + 2  (steps are 1-based)
            coefs = {h_vars[i][k]: 1.0 for k in range(j + 1)}
            coefs[y_vars[i]] = 1.0
            cons.append(LinearConstraint(coefs, GE, float(j + 2), name=f"cover[{i},{j}]"))
    for i in range(m):
        for j in range(m):
            cons.append(LinearConstraint({h_vars[i][j]: 1.0}, GE, 0.0, name=f"lb[{i},{j}]"))
            cons.append(LinearConstraint({h_vars[i][j]: 1.0}, LE, 1.0, name=f"ub[{i},{j}]"))
    return cons


def birkhoff_extension(m: int, y_vars, builder):
    """Compact extension of the position polytope via doubly-stochastic
    matrices: z[i][j] is the weight of element i landing at step j+1, and
    y_i is the expected step. Returns (z variable ids, constraints); the
    z variables are allocated on `builder`, the constraints are returned
    (not added) so callers control assembly.
    """
    z = [[builder.add_var(f"z[{i},{j}]", 0.0, 1.0) for j in range(m)] for i in range(m)]
    cons = []
    for i in range(m):
        cons.append(
            LinearConstraint({z[i][j]: 1.0 for j in range(m)}, EQ, 1.0, name=f"rowsum[{i}]")
        )
    for j in range(m):
        cons.append(
            LinearConstraint({z[i][j]: 1.0 for i in range(m)}, EQ, 1.0, name=f"colsum[{j}]")
        )
    for i in range(m):
        coefs = {z[i][j]: float(j + 1) for j in range(m)}
        coefs[y_vars[i]] = -1.0
        cons.append(LinearConstraint(coefs, EQ, 0.0, name=f"ylink[{i}]"))
    return z, cons


def all_permutations(m: int):
    """Iterate all permutations of m elements in lexicographic order of
    their realization order."""
    import itertools

    for order in itertools.permutations(range(m)):
        yield Permutation.from_order(order)


def random_permutahedron_point(m: int, rng: np.random.Generator):
    """Random convex combination of a few permutation vectors (always inside
    the polytope); useful for membership testing."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    point = np.zeros(m)
    for w in weights:
        perm = rng.permutation(m) + 1
        point += w * perm
    return point
