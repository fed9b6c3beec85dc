"""Dense two-phase bounded-variable primal simplex solver.

Small, self-contained, and deterministic. Every variable needs a finite
lower bound, so standard form is a plain shift, u = x - lower. Every
program takes one path: one tableau (`_tableau`), phase 1, phase 2,
with both phases priced by the same routine. A program's `start` names
variables that begin at their finite upper bound instead of their lower
one (a crash start). Phase 1 runs only if that point leaves some
artificial variable positive, so a start that satisfies every row goes
straight to phase 2. Variable bounds stay out of the tableau: the ratio
test stops a variable at its upper bound and reflects its column instead
of carrying one row per bounded variable, which also solves a program
with no rows at all. Pricing is Dantzig's rule (most negative reduced
cost); after DEGENERATE_LIMIT degenerate steps in a row it falls back to
Bland's rule, which cannot cycle, until a step makes progress. All the
polyhedral machinery in this package (master programs, membership
checks, uniqueness checks) goes through `solve`.
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
    start: frozenset = frozenset()  # variables that begin at their upper bound

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise LpError(f"bad sense {self.sense!r}")
        if not (len(self.lower) == len(self.upper) == len(self.objective) == self.n):
            raise LpError("bounds/objective length mismatch")
        for i in range(self.n):
            # one column kind, a shift, needs a finite lower bound; NaN fails too
            if not (math.isfinite(self.lower[i]) and self.lower[i] <= self.upper[i]):
                raise LpError(f"variable {i}: bounds [{self.lower[i]}, {self.upper[i]}] "
                              "need a finite lower bound no greater than the upper bound")
        for con in self.constraints:
            for var in con.coefficients:
                if not (0 <= var < self.n):
                    raise LpError(f"constraint references undeclared variable {var}")
        for var in self.start:
            if not (0 <= var < self.n and math.isfinite(self.upper[var])):
                raise LpError(f"start variable {var} is undeclared or has no finite upper bound")


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
        self.constraints = []

    @property
    def n(self):
        return len(self.lower)

    def add_var(self, lower=0.0, upper=math.inf, objective=0.0) -> int:
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        return self.n - 1

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

    def build(self, sense="max", start=()) -> LinearProgram:
        return LinearProgram(
            n=self.n,
            lower=list(self.lower),
            upper=list(self.upper),
            objective=list(self.objective),
            sense=sense,
            constraints=list(self.constraints),
            start=frozenset(start),
        )


def _tableau(lp: LinearProgram):
    """The starting tableau of max c.u, A u (rels) b, 0 <= u <= ub, b >= 0,
    as (T, basis, ub, flipped, first_art), `ub` and `flipped` per column.

    Each variable is shifted by its finite lower bound, u = x - lower, with
    ub = upper - lower (math.inf when there is none), each `lp.start` column
    is reflected by `_reflect` in ascending order, and each row whose right
    side is then negative is negated, its relation flipped. Only then are
    the artificials known: each `<=`/`>=` row gets a slack and each `>=`/`=`
    row an artificial (slacks first, each kind in row order), the row's last
    added column basic. Bounds stay bounds, handled by the ratio test.
    """
    n, rows = lp.n, lp.constraints
    ub = np.array(lp.upper, dtype=float) - np.array(lp.lower, dtype=float)
    flipped = np.zeros(n, dtype=bool)
    A = np.zeros((len(rows) + 1, n + 1))  # the variables' columns and the rhs
    for r, con in enumerate(rows):
        right = con.rhs
        for var, coef in con.coefficients.items():
            right -= coef * lp.lower[var]
            A[r, var] = coef
        A[r, -1] = right
    for col in sorted(lp.start):
        _reflect(A, col, ub, flipped)
    rels = [con.relation for con in rows]
    for r in (A[:-1, -1] < 0).nonzero()[0]:
        A[r] *= -1.0
        rels[r] = {LE: GE, GE: LE, EQ: EQ}[rels[r]]
    first_art = n + sum(rel != EQ for rel in rels)
    total = first_art + sum(rel != LE for rel in rels)
    T = np.zeros((len(rows) + 1, total + 1))
    T[:, :n], T[:, -1] = A[:, :n], A[:, -1]
    basis = np.zeros(len(rows), dtype=int)
    slack, art = n, first_art
    for r, rel in enumerate(rels):
        if rel != EQ:
            T[r, slack] = 1.0 if rel == LE else -1.0
            basis[r] = slack
            slack += 1
        if rel != LE:
            T[r, art] = 1.0
            basis[r] = art
            art += 1
    ub = np.concatenate((ub, np.full(total - n, math.inf)))
    return T, basis, ub, np.concatenate((flipped, np.zeros(total - n, dtype=bool))), first_art


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
    column = T[:, col]
    T[:, -1] -= column * ub[col]
    column *= -1.0
    flipped[col] = not flipped[col]


def _price(T, basis, cost):
    """Set the objective row to the reduced costs of maximizing cost.u at
    the current basis: -cost, plus cost[b] times the row of each basic
    column b, in row order."""
    T[-1] = 0.0
    T[-1, : len(cost)] = -cost
    for r in cost[basis].nonzero()[0]:
        T[-1] += cost[basis[r]] * T[r]


def _simplex(T, basis, ub, flipped, n_cols, start_iter):
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
    can_enter = ub[:n_cols] > 0.0
    degenerate = 0
    while True:
        if it >= MAX_ITER:
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
        ub_basic = ub[basis]
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
            pick = int(basis[rows].argmin())
            row, leaving = int(rows[pick]), int(basis[rows[pick]])
            _pivot(T, basis, row, enter)
            if cand[pick] >= down.size:  # it left at its upper bound
                _reflect(T, leaving, ub, flipped)
            degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
        it += 1


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase bounded-variable primal simplex. Deterministic for a fixed input.

    One path for every program: `_tableau` (each variable shifted by its
    finite lower bound, so x = lower + u at the end, each `start` variable
    at its upper bound, one slack per `<=`/`>=` row and one artificial per
    `>=`/`=` row), then phase 1 (maximize minus the sum of the artificials)
    if some artificial is positive at the start, then phase 2 on the
    reflected costs. A program with no rows takes the same path; its phase 2
    flips each variable whose cost points up to its bound. Iterations stop
    at MAX_ITER, read at call time.
    """
    T, basis, ub, flipped, first_art = _tableau(lp)
    m_rows, n, total = len(basis), lp.n, len(ub)
    iters = 0
    if (T[:m_rows, -1][basis >= first_art] > 0.0).any():
        # phase 1: maximize -sum(artificials)
        cost = np.zeros(total)
        cost[first_art:] = -1.0
        _price(T, basis, cost)
        status, iters = _simplex(T, basis, ub, flipped, total, 0)
        if status == ITERATION_LIMIT:
            return LpSolution(ITERATION_LIMIT, iterations=iters)
        if -T[-1, -1] > 1e-7:
            return LpSolution(INFEASIBLE, iterations=iters)
    # drive remaining artificials out of the basis; an artificial with no
    # pivot in its row marks a redundant row and stays basic at value 0
    for r in (basis >= first_art).nonzero()[0]:
        piv = (np.abs(T[r, :first_art]) > PIVOT_TOL).nonzero()[0]
        if piv.size:
            _pivot(T, basis, r, int(piv[0]))
    T[:, first_art:total] = 0.0

    # phase 2: reduced costs of the reflected columns
    objective = np.array(lp.objective, dtype=float)
    c = objective if lp.sense == "max" else -objective
    cost = np.zeros(total)
    cost[:n] = np.where(flipped[:n], -c, c)
    _price(T, basis, cost)
    status, iters = _simplex(T, basis, ub, flipped, first_art, iters)
    if status != OPTIMAL:
        return LpSolution(status, iterations=iters)

    u = np.zeros(total)
    u[basis] = T[:m_rows, -1]
    u[flipped] = ub[flipped] - u[flipped]
    x = np.array(lp.lower, dtype=float) + u[:n]
    return LpSolution(OPTIMAL, float(np.dot(objective, x)), x, iterations=iters)


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
