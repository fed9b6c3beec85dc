"""Dense two-phase bounded-variable primal simplex solver.

Small, self-contained, and deterministic. Every program takes one path:
standard form, one tableau, phase 1, phase 2, with both phases priced by
the same routine. Variable bounds stay out of the tableau: the ratio test
stops a variable at its upper bound and reflects its column instead of
carrying one row per bounded variable, which also solves a program with
no rows at all. Pricing is Dantzig's rule (most negative reduced cost);
after DEGENERATE_LIMIT degenerate steps in a row it falls back to Bland's
rule, which cannot cycle, until a step makes progress. All the polyhedral
machinery in this package (master programs, membership checks, uniqueness
checks) goes through `solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
# smallest reduced cost or pivot-column entry the simplex treats as nonzero
PIVOT_TOL = 1e-9
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
    """Rewrite as max c.u, A u (rels) b, 0 <= u <= ub, with b >= 0.

    Returns (c, A, b, rels, ub, const, sign, recover): `A` is the dense
    constraint matrix with one row per constraint, `rels` the relation of
    each row, `ub` the upper bound of each standard column (math.inf when
    there is none), `const` and `sign` map c.u back to the original
    objective, and `recover` maps a standard-form point back to the
    original variables. Each original variable is shifted by its finite
    lower bound (its upper bound becomes ub - lb), reflected if only the
    upper bound is finite, or split into a difference of nonnegatives if
    free. A row whose right side comes out negative is negated, with its
    relation flipped. Bounds stay bounds: the simplex handles them in its
    ratio test, not as rows.
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

    A = np.zeros((len(lp.constraints), n_std))
    rhs = np.zeros(len(lp.constraints))
    rels = []
    for r, con in enumerate(lp.constraints):
        row = A[r]
        right = con.rhs
        for var, coef in con.coefficients.items():
            kind, a, b = cols[var]
            if kind == "shift":
                row[a] += coef
                right -= coef * b
            elif kind == "reflect":
                row[a] -= coef
                right -= coef * b
            else:
                row[a] += coef
                row[b] -= coef
        rel = con.relation
        if right < 0:
            row *= -1.0
            right = -right
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        rhs[r] = right
        rels.append(rel)

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

    return c, A, rhs, rels, np.array(ub), const, sign, recover


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


def _price(T, basis, cost):
    """Set the objective row to the reduced costs of maximizing cost.u at
    the current basis: -cost, plus cost[b] times the row of each basic
    column b, in row order."""
    T[-1] = 0.0
    T[-1, : len(cost)] = -cost
    for r, bc in enumerate(basis):
        if cost[bc] != 0.0:
            T[-1] += cost[bc] * T[r]


def _simplex(T, basis, ub, flipped, n_cols, start_iter, max_iter):
    """Bounded-variable primal simplex on tableau T (last row = objective,
    last col = rhs), every nonbasic column at 0 after reflection.

    The objective row holds reduced costs; columns below n_cols whose
    reduced cost is < -PIVOT_TOL and whose upper bound is positive may
    enter. Dantzig pricing picks the most negative reduced cost (smallest
    index on ties); after DEGENERATE_LIMIT degenerate steps in a row it
    falls back to Bland's rule (smallest eligible index) until a step makes
    progress. The ratio test stops at the first of: a basic variable
    reaching 0, a basic variable reaching its upper bound (pivot, then
    reflect the leaving column), or the entering variable reaching its own
    upper bound (reflect it, no basis change; with no upper bound and no
    blocking row the program is unbounded). Ties between rows go to the
    smallest basic index. Returns (status, iterations used); an iteration
    is a pivot or a bound flip.
    """
    it = start_iter
    m_rows = T.shape[0] - 1
    basis_arr = np.array(basis, dtype=int)
    can_enter = ub[:n_cols] > 0.0
    degenerate = 0
    while True:
        if it >= max_iter:
            return ITERATION_LIMIT, it
        reduced = T[-1, :n_cols]
        eligible = (reduced < -PIVOT_TOL) & can_enter
        if not eligible.any():
            return OPTIMAL, it
        if degenerate < DEGENERATE_LIMIT:
            enter = int(np.where(eligible, reduced, 0.0).argmin())
        else:
            enter = int(eligible.argmax())
        col = T[:m_rows, enter]
        rhs = T[:m_rows, -1]
        ub_basic = ub[basis_arr]
        down = (col > PIVOT_TOL).nonzero()[0]
        up = ((col < -PIVOT_TOL) & (ub_basic < math.inf)).nonzero()[0]
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
            degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
        it += 1


def solve(lp: LinearProgram, max_iter=MAX_ITER) -> LpSolution:
    """Two-phase bounded-variable primal simplex. Deterministic for a fixed input.

    One path for every program: standard form, then a tableau with one
    slack per `<=`/`>=` row and one artificial per `>=`/`=` row (in row
    order), then phase 1 (maximize minus the sum of the artificials), then
    phase 2 on the reflected costs. A program with no rows takes the same
    path; its phase 2 flips each variable whose cost points up to its bound.
    """
    c, A, b, rels, ub_std, const, sign, recover = _to_standard_form(lp)
    m_rows, n_std = A.shape
    n_slack = sum(rel != EQ for rel in rels)
    first_art = n_std + n_slack
    total = first_art + sum(rel != LE for rel in rels)
    ub = np.concatenate((ub_std, np.full(total - n_std, math.inf)))
    flipped = np.zeros(total, dtype=bool)

    T = np.zeros((m_rows + 1, total + 1))
    T[:m_rows, :n_std] = A
    T[:m_rows, -1] = b
    basis = [0] * m_rows
    slack, art = n_std, first_art
    for r, rel in enumerate(rels):
        if rel != EQ:
            T[r, slack] = 1.0 if rel == LE else -1.0
            basis[r] = slack
            slack += 1
        if rel != LE:
            T[r, art] = 1.0
            basis[r] = art
            art += 1

    # phase 1: maximize -sum(artificials)
    cost = np.zeros(total)
    cost[first_art:] = -1.0
    _price(T, basis, cost)
    status, iters = _simplex(T, basis, ub, flipped, total, 0, max_iter)
    if status == ITERATION_LIMIT:
        return LpSolution(ITERATION_LIMIT, iterations=iters)
    if -T[-1, -1] > 1e-7:
        return LpSolution(INFEASIBLE, iterations=iters)
    # drive remaining artificials out of the basis; an artificial with no
    # pivot in its row marks a redundant row and stays basic at value 0
    for r in range(m_rows):
        if basis[r] >= first_art:
            piv = (np.abs(T[r, :first_art]) > PIVOT_TOL).nonzero()[0]
            if piv.size:
                _pivot(T, basis, r, int(piv[0]))
    T[:, first_art:total] = 0.0

    # phase 2: reduced costs of the reflected columns
    cost = np.zeros(total)
    cost[:n_std] = np.where(flipped[:n_std], -c, c)
    _price(T, basis, cost)
    status, iters = _simplex(T, basis, ub, flipped, first_art, iters, max_iter)
    if status != OPTIMAL:
        return LpSolution(status, iterations=iters)

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
