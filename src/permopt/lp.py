"""Dense two-phase bounded-variable primal simplex solver.

Small, self-contained, and deterministic. Variable bounds stay out of the
tableau: the ratio test stops a variable at its upper bound and reflects
its column instead of carrying one row per bounded variable. Pricing is
Dantzig's rule (most negative reduced cost); after DEGENERATE_LIMIT
degenerate steps in a row it falls back to Bland's rule, which cannot
cycle, until a step makes progress. All the polyhedral machinery in this
package (master programs, membership checks, uniqueness checks) goes
through `solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
VALUE_TOL = 1e-6
MAX_ITER = 50_000
# degenerate steps in a row before pricing falls back to Bland's rule
DEGENERATE_LIMIT = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

LE, EQ, GE = "<=", "=", ">="


class LpError(Exception):
    """Malformed program or solver failure."""


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse row: sum(coefficients[i] * x[i]) <relation> rhs."""

    coefficients: dict
    relation: str
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.relation not in (LE, EQ, GE):
            raise LpError(f"bad relation {self.relation!r}")
        for var, coef in self.coefficients.items():
            if coef == 0:
                raise LpError(f"zero coefficient for variable {var}")

    def evaluate(self, x) -> float:
        return sum(coef * x[var] for var, coef in self.coefficients.items())

    def satisfied(self, x, tol: float = FEAS_TOL) -> bool:
        lhs = self.evaluate(x)
        if self.relation == LE:
            return lhs <= self.rhs + tol
        if self.relation == GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def violation(self, x) -> float:
        lhs = self.evaluate(x)
        if self.relation == LE:
            return max(0.0, lhs - self.rhs)
        if self.relation == GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class LinearProgram:
    n: int
    lower: list
    upper: list
    objective: list
    sense: str  # 'max' or 'min'
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LpError(f"bad sense {self.sense!r}")
        if not (len(self.lower) == len(self.upper) == len(self.objective) == self.n):
            raise LpError("bounds/objective length mismatch")
        for i in range(self.n):
            if self.lower[i] > self.upper[i]:
                raise LpError(f"variable {i}: lower bound exceeds upper bound")
        for con in self.constraints:
            for var in con.coefficients:
                if not (0 <= var < self.n):
                    raise LpError(f"constraint references undeclared variable {var}")


@dataclass
class LpSolution:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    iterations: int = 0  # simplex pivots plus bound flips, both phases


class LpBuilder:
    """Incremental variable/constraint assembly.

    Single-variable constraints are folded into the variable bounds so the
    simplex tableau stays small.
    """

    def __init__(self):
        self.lower = []
        self.upper = []
        self.objective = []
        self.names = []
        self.constraints = []

    @property
    def n(self):
        return len(self.lower)

    def add_var(self, name="", lower=0.0, upper=math.inf, objective=0.0) -> int:
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        self.names.append(name or f"x{self.n - 1}")
        return self.n - 1

    def add_vars(self, count, prefix="x", lower=0.0, upper=math.inf) -> list:
        return [self.add_var(f"{prefix}[{k}]", lower, upper) for k in range(count)]

    def set_objective(self, var, coef):
        self.objective[var] += coef

    def add(self, con: LinearConstraint):
        if len(con.coefficients) == 1:
            ((var, coef),) = con.coefficients.items()
            bound = con.rhs / coef
            rel = con.relation
            if coef < 0 and rel != EQ:
                rel = GE if rel == LE else LE
            if rel in (LE, EQ):
                self.upper[var] = min(self.upper[var], bound)
            if rel in (GE, EQ):
                self.lower[var] = max(self.lower[var], bound)
        else:
            self.constraints.append(con)

    def add_all(self, cons):
        for con in cons:
            self.add(con)

    def build(self, sense="max") -> LinearProgram:
        return LinearProgram(
            n=self.n,
            lower=list(self.lower),
            upper=list(self.upper),
            objective=list(self.objective),
            sense=sense,
            constraints=list(self.constraints),
        )


def _to_standard_form(lp: LinearProgram):
    """Rewrite as max c.u, A u (<=,=) b, 0 <= u <= ub.

    Returns (c, rows, ub, const, sign, recover): `rows` holds one
    (dense coefficients, relation, rhs) triple per constraint, `ub` the
    upper bound of each standard column (math.inf when there is none),
    `const` and `sign` map c.u back to the original objective, and
    `recover` maps a standard-form point back to the original variables.
    Each original variable is shifted by its finite lower bound (its upper
    bound becomes ub - lb), reflected if only the upper bound is finite, or
    split into a difference of nonnegatives if free. Bounds stay bounds:
    the simplex handles them in its ratio test, not as rows.
    """
    cols = []  # per original var: ('shift', u_idx, lb) | ('reflect', u_idx, ub) | ('free', u+, u-)
    ub = []
    for i in range(lp.n):
        lo, hi = lp.lower[i], lp.upper[i]
        if lo > -math.inf:
            cols.append(("shift", len(ub), lo))
            ub.append(hi - lo)
        elif hi < math.inf:
            cols.append(("reflect", len(ub), hi))
            ub.append(math.inf)
        else:
            cols.append(("free", len(ub), len(ub) + 1))
            ub += [math.inf, math.inf]
    n_std = len(ub)

    sign = 1.0 if lp.sense == "max" else -1.0
    c = np.zeros(n_std)
    const = 0.0
    for i in range(lp.n):
        coef = sign * lp.objective[i]
        kind, a, b = cols[i]
        if kind == "shift":
            c[a] += coef
            const += coef * b
        elif kind == "reflect":
            c[a] -= coef
            const += coef * b
        else:
            c[a] += coef
            c[b] -= coef

    rows = []  # (dense coef array, relation in {LE, GE, EQ}, rhs)
    for con in lp.constraints:
        row = np.zeros(n_std)
        rhs = con.rhs
        for var, coef in con.coefficients.items():
            kind, a, b = cols[var]
            if kind == "shift":
                row[a] += coef
                rhs -= coef * b
            elif kind == "reflect":
                row[a] -= coef
                rhs -= coef * b
            else:
                row[a] += coef
                row[b] -= coef
        rows.append((row, con.relation, rhs))

    def recover(u):
        x = np.zeros(lp.n)
        for i in range(lp.n):
            kind, a, b = cols[i]
            if kind == "shift":
                x[i] = b + u[a]
            elif kind == "reflect":
                x[i] = b - u[a]
            else:
                x[i] = u[a] - u[b]
        return x

    return c, rows, np.array(ub), const, sign, recover


def _pivot(T, basis, row, col):
    # only entries in a row with a nonzero in the pivot column and a column
    # with a nonzero in the pivot row change; the master tableaus are sparse
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    cols = T[row].nonzero()[0]
    T[rows[:, None], cols] -= factors[rows, None] * T[row, cols]
    basis[row] = col


def _reflect(T, col, ub, flipped):
    """Substitute u' = ub - u for nonbasic column `col`, so the variable
    that sat at its upper bound sits at 0 again: the rhs column (objective
    row included) absorbs the shift and the column changes sign."""
    T[:, -1] -= T[:, col] * ub[col]
    T[:, col] *= -1.0
    flipped[col] = not flipped[col]


def _simplex(T, basis, ub, flipped, n_cols, start_iter, max_iter, pivot_tol=1e-9):
    """Bounded-variable primal simplex on tableau T (last row = objective,
    last col = rhs), every nonbasic column at 0 after reflection.

    The objective row holds reduced costs; columns below n_cols whose
    reduced cost is < -tol and whose upper bound is positive may enter.
    Dantzig pricing picks the most negative reduced cost (smallest index on
    ties); after DEGENERATE_LIMIT degenerate steps in a row it falls back
    to Bland's rule (smallest eligible index) until a step makes progress.
    The ratio test stops at the first of: a basic variable reaching 0, a
    basic variable reaching its upper bound (pivot, then reflect the
    leaving column), or the entering variable reaching its own upper bound
    (reflect it, no basis change). Ties between rows go to the smallest
    basic index. Returns (status, iterations used); an iteration is a pivot
    or a bound flip.
    """
    it = start_iter
    m_rows = T.shape[0] - 1
    basis_arr = np.array(basis)
    can_enter = ub[:n_cols] > 0.0
    degenerate = 0
    while True:
        if it >= max_iter:
            return ITERATION_LIMIT, it
        reduced = T[-1, :n_cols]
        eligible = (reduced < -pivot_tol) & can_enter
        if not eligible.any():
            return OPTIMAL, it
        if degenerate < DEGENERATE_LIMIT:
            enter = int(np.where(eligible, reduced, 0.0).argmin())
        else:
            enter = int(eligible.argmax())
        col = T[:m_rows, enter]
        rhs = T[:m_rows, -1]
        ub_basic = ub[basis_arr]
        down = (col > pivot_tol).nonzero()[0]
        up = ((col < -pivot_tol) & (ub_basic < math.inf)).nonzero()[0]
        ratios = np.maximum(
            np.concatenate((rhs[down] / col[down], (ub_basic[up] - rhs[up]) / -col[up])), 0.0
        )
        step = ratios.min() if ratios.size else math.inf
        if ub[enter] <= step:
            if ub[enter] == math.inf:
                return UNBOUNDED, it
            _reflect(T, enter, ub, flipped)
            degenerate = 0
        else:
            cand = (ratios <= step + 1e-12).nonzero()[0]
            rows = np.concatenate((down, up))[cand]
            pick = int(basis_arr[rows].argmin())
            row, leaving = int(rows[pick]), int(basis_arr[rows[pick]])
            _pivot(T, basis, row, enter)
            basis_arr[row] = enter
            if cand[pick] >= down.size:  # it left at its upper bound
                _reflect(T, leaving, ub, flipped)
            degenerate = degenerate + 1 if step <= pivot_tol else 0
        it += 1


def solve(lp: LinearProgram, feas_tol=FEAS_TOL, max_iter=MAX_ITER) -> LpSolution:
    """Two-phase bounded-variable primal simplex. Deterministic for a fixed input."""
    c, rows, ub_std, const, sign, recover = _to_standard_form(lp)
    n_std = len(c)
    m_rows = len(rows)

    if m_rows == 0:
        # Only bounds: each variable sits at the bound its cost points to.
        u = np.zeros(n_std)
        up = c > feas_tol
        if np.any(ub_std[up] == math.inf):
            return LpSolution(UNBOUNDED)
        u[up] = ub_std[up]
        x = recover(u)
        obj = float(np.dot(c, u) + const) * sign
        return LpSolution(OPTIMAL, obj, x)

    n_slack = sum(1 for _, rel, _ in rows if rel != EQ)
    # artificials: one per >= or = row, plus per <= row with no slack start
    A = np.zeros((m_rows, n_std))
    b = np.zeros(m_rows)
    rels = []
    for r, (row, rel, rhs) in enumerate(rows):
        if rhs < 0:
            row = -row
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        A[r] = row
        b[r] = rhs
        rels.append(rel)

    slack_of = {}
    k = 0
    for r, rel in enumerate(rels):
        if rel != EQ:
            slack_of[r] = n_std + k
            k += 1
    art_rows = [r for r, rel in enumerate(rels) if rel != LE]
    n_art = len(art_rows)
    total = n_std + n_slack + n_art
    ub = np.concatenate((ub_std, np.full(n_slack + n_art, math.inf)))
    flipped = np.zeros(total, dtype=bool)

    T = np.zeros((m_rows + 1, total + 1))
    T[:m_rows, :n_std] = A
    T[:m_rows, -1] = b
    basis = [0] * m_rows
    ai = 0
    for r, rel in enumerate(rels):
        if rel == LE:
            T[r, slack_of[r]] = 1.0
            basis[r] = slack_of[r]
        elif rel == GE:
            T[r, slack_of[r]] = -1.0
            T[r, n_std + n_slack + ai] = 1.0
            basis[r] = n_std + n_slack + ai
            ai += 1
        else:
            T[r, n_std + n_slack + ai] = 1.0
            basis[r] = n_std + n_slack + ai
            ai += 1

    iters = 0
    if n_art > 0:
        # phase 1: maximize -sum(artificials); price out basic artificials
        for r in range(m_rows):
            if basis[r] >= n_std + n_slack:
                T[-1, : total] -= T[r, :total]
                T[-1, -1] -= T[r, -1]
        T[-1, n_std + n_slack : total] = 0.0
        status, iters = _simplex(T, basis, ub, flipped, total, 0, max_iter)
        if status == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, iterations=iters)
        if -T[-1, -1] > 1e-7:
            return LpSolution(INFEASIBLE, iterations=iters)
        # drive remaining artificials out of the basis
        for r in range(m_rows):
            if basis[r] >= n_std + n_slack:
                piv = -1
                for j in range(n_std + n_slack):
                    if abs(T[r, j]) > 1e-9:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(T, basis, r, piv)
                # else: redundant row, artificial stays basic at value 0
        T[:, n_std + n_slack : total] = 0.0

    # phase 2 objective row: reduced costs of the reflected columns
    # relative to the current basis
    cost = np.zeros(total)
    cost[:n_std] = np.where(flipped[:n_std], -c, c)
    T[-1, :] = 0.0
    T[-1, :total] = -cost
    for r in range(m_rows):
        bc = basis[r]
        if cost[bc] != 0.0:
            T[-1, : total] += cost[bc] * T[r, :total]
            T[-1, -1] += cost[bc] * T[r, -1]
    status, iters = _simplex(T, basis, ub, flipped, n_std + n_slack, iters, max_iter)
    if status == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, iterations=iters)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, iterations=iters)

    u = np.zeros(total)
    u[basis] = T[:m_rows, -1]
    u[flipped] = ub[flipped] - u[flipped]
    x = recover(u[:n_std])
    obj = float(np.dot(c, u[:n_std]) + const) * sign
    return LpSolution(OPTIMAL, obj, x, iterations=iters)


def verify(lp: LinearProgram, sol: LpSolution, tol: float = VALUE_TOL) -> bool:
    """Independent feasibility + objective check of an optimal solution."""
    if sol.status != OPTIMAL:
        raise LpError("verify requires an optimal solution")
    x = sol.x
    for i in range(lp.n):
        if x[i] < lp.lower[i] - tol or x[i] > lp.upper[i] + tol:
            return False
    for con in lp.constraints:
        if not con.satisfied(x, tol):
            return False
    obj = float(np.dot(lp.objective, x))
    return abs(obj - sol.objective) <= tol
